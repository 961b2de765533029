package netproto

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestFields(t *testing.T) {
	scratch := make([][]byte, 0, 8)
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"   ", nil},
		{"GET 5", []string{"GET", "5"}},
		{"  SET   1\t2  ", []string{"SET", "1", "2"}},
		{"LEN\r", []string{"LEN"}},
		{"a \t b\r", []string{"a", "b"}},
		{"MPUT 1 2 3 4", []string{"MPUT", "1", "2", "3", "4"}},
	}
	for _, tc := range cases {
		got := Fields(scratch[:0], []byte(tc.in))
		if len(got) != len(tc.want) {
			t.Fatalf("Fields(%q) = %d fields, want %d", tc.in, len(got), len(tc.want))
		}
		for i := range got {
			if string(got[i]) != tc.want[i] {
				t.Fatalf("Fields(%q)[%d] = %q, want %q", tc.in, i, got[i], tc.want[i])
			}
		}
	}
}

// TestFieldsMatchesStrings cross-checks against strings.Fields over a
// grab bag of separator layouts.
func TestFieldsMatchesStrings(t *testing.T) {
	scratch := make([][]byte, 0, 16)
	for _, in := range []string{
		"GET 1", " GET  2 ", "\tSET 3 4\t", "a b c d e f", "x", " ", "",
		"MGET 1 2 3\r", "cmd\targ1 \t arg2",
	} {
		want := strings.Fields(strings.TrimSuffix(in, "\r"))
		got := Fields(scratch[:0], []byte(in))
		if len(got) != len(want) {
			t.Fatalf("Fields(%q): %d fields, strings.Fields: %d", in, len(got), len(want))
		}
		for i := range got {
			if string(got[i]) != want[i] {
				t.Fatalf("Fields(%q)[%d] = %q, want %q", in, i, got[i], want[i])
			}
		}
	}
}

func TestEqFold(t *testing.T) {
	for _, tc := range []struct {
		tok   string
		upper string
		want  bool
	}{
		{"GET", "GET", true},
		{"get", "GET", true},
		{"GeT", "GET", true},
		{"GETS", "GET", false},
		{"GE", "GET", false},
		{"MPUT", "MGET", false},
		{"", "GET", false},
		// Byte 0x27 is '\'' — folding must not alias it onto 'G' (0x47).
		{"\x27ET", "GET", false},
	} {
		if got := EqFold([]byte(tc.tok), tc.upper); got != tc.want {
			t.Errorf("EqFold(%q, %q) = %v, want %v", tc.tok, tc.upper, got, tc.want)
		}
	}
}

func TestParseUint(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"0", 0, true},
		{"7", 7, true},
		{"18446744073709551615", math.MaxUint64, true},
		{"18446744073709551616", 0, false}, // overflow by one
		{"99999999999999999999999", 0, false},
		{"", 0, false},
		{"-1", 0, false},
		{"1x", 0, false},
		{" 1", 0, false},
	} {
		got, ok := ParseUint([]byte(tc.in))
		if ok != tc.ok || got != tc.want {
			t.Errorf("ParseUint(%q) = (%d, %v), want (%d, %v)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	// Differential sweep against strconv.
	for i := 0; i < 2000; i++ {
		v := uint64(i) * 0x9e3779b97f4a7c15
		s := strconv.FormatUint(v, 10)
		got, ok := ParseUint([]byte(s))
		if !ok || got != v {
			t.Fatalf("ParseUint(%q) = (%d, %v), want %d", s, got, ok, v)
		}
	}
}

// TestZeroAlloc pins the whole tokenize+match+parse cycle at zero
// allocations — the property the pipelined dispatcher is built on.
func TestZeroAlloc(t *testing.T) {
	line := []byte("SET 123456789 987654321")
	scratch := make([][]byte, 0, 8)
	allocs := testing.AllocsPerRun(1000, func() {
		f := Fields(scratch[:0], line)
		if len(f) != 3 || !EqFold(f[0], "SET") {
			t.Fatal("bad tokenize")
		}
		if _, ok := ParseUint(f[1]); !ok {
			t.Fatal("bad parse")
		}
		if _, ok := ParseUint(f[2]); !ok {
			t.Fatal("bad parse")
		}
	})
	if allocs != 0 {
		t.Fatalf("tokenize+parse allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkTokenize(b *testing.B) {
	line := []byte("set 123456789 987654321")
	scratch := make([][]byte, 0, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := Fields(scratch[:0], line)
		if !EqFold(f[0], "SET") {
			b.Fatal("mismatch")
		}
	}
}

func FuzzParseUint(f *testing.F) {
	f.Add("0")
	f.Add("18446744073709551615")
	f.Add("18446744073709551616")
	f.Add("x")
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := ParseUint([]byte(s))
		want, err := strconv.ParseUint(s, 10, 64)
		// strconv accepts "+1" and underscores? (no underscores in base-10
		// ParseUint without 0 prefix, but "+1" yes) — our grammar is digits
		// only, so only compare when strconv's input is pure digits.
		pure := s != "" && len(s) <= 20 && !bytes.ContainsFunc([]byte(s), func(r rune) bool { return r < '0' || r > '9' })
		if pure {
			if err != nil && ok {
				t.Fatalf("ParseUint(%q) ok, strconv errs: %v", s, err)
			}
			if err == nil && (!ok || got != want) {
				t.Fatalf("ParseUint(%q) = (%d,%v), strconv %d", s, got, ok, want)
			}
		} else if ok {
			// Non-pure inputs must be rejected.
			if _, err := strconv.ParseUint(s, 10, 64); err == nil && len(s) <= 20 {
				t.Fatalf("ParseUint(%q) accepted, input not pure digits", s)
			}
			t.Fatalf("ParseUint(%q) = %d accepted non-digit input", s, got)
		}
	})
}

// FuzzFields: any line tokenizes without a panic; every token is a
// non-empty, separator-free sub-slice of the line's own bytes, in order,
// and the bytes between tokens are separators only (plus one stripped
// trailing '\r').
func FuzzFields(f *testing.F) {
	for _, s := range []string{"SET 1 10", " GET\t2 \r", "MPUT 1 2 3 4", "\r", "", " \t ", "a\rb\r", "SCAN 0 18446744073709551615"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		orig := bytes.Clone(line)
		toks := Fields(nil, line)
		if !bytes.Equal(line, orig) {
			t.Fatalf("Fields mutated its input %q", orig)
		}
		body := bytes.TrimSuffix(line, []byte("\r"))
		pos := 0 // next unconsumed offset of body
		for _, tok := range toks {
			if len(tok) == 0 || bytes.ContainsAny(tok, " \t") {
				t.Fatalf("Fields(%q) produced token %q", line, tok)
			}
			// Aliasing: the token's first byte lives inside body, at or
			// after the previous token's end.
			off := -1
			for i := pos; i+len(tok) <= len(body); i++ {
				if &body[i] == &tok[0] {
					off = i
					break
				}
			}
			if off < 0 {
				t.Fatalf("Fields(%q): token %q does not alias the line past offset %d", line, tok, pos)
			}
			if gap := body[pos:off]; len(bytes.Trim(gap, " \t")) != 0 {
				t.Fatalf("Fields(%q) skipped non-separator bytes %q", line, gap)
			}
			pos = off + len(tok)
		}
		if len(bytes.Trim(body[pos:], " \t")) != 0 {
			t.Fatalf("Fields(%q) dropped the tail %q", line, body[pos:])
		}
	})
}

func ExampleFields() {
	f := Fields(nil, []byte("set 1 10"))
	fmt.Println(len(f), string(f[0]))
	// Output: 3 set
}
