package main

// Minimal line-protocol client for the kill -9 smoke. The server's own
// test clients live with the engine in internal/server; the smoke drives a
// separately built binary over TCP, so it keeps its own copy.

import (
	"fmt"
	"net"
	"time"
)

// clientOf wraps a raw conn for goroutines that cannot call t.Fatal.
func clientOf(conn net.Conn) *lineClient {
	return &lineClient{conn: conn}
}

type lineClient struct {
	conn net.Conn
}

func (c *lineClient) cmdE(line string) (string, error) {
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		return "", err
	}
	c.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	var out []byte
	one := make([]byte, 1)
	for {
		if _, err := c.conn.Read(one); err != nil {
			return "", err
		}
		if one[0] == '\n' {
			return string(out), nil
		}
		out = append(out, one[0])
	}
}
