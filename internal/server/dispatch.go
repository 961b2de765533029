package server

// Slow-path command execution: multi-key requests, scans, stats, and the
// structured-error replies for malformed point commands. The caller
// (dispatch) has already settled the pending group, so these may reply
// immediately. Replies — including the usage/size-cap error lines — are
// appended with the netproto/strconv formatters, never fmt; only the
// %v-of-error internal failure paths still allocate through fmt.

import (
	"sort"
	"strconv"

	"altindex"
	"altindex/internal/index"
	"altindex/internal/netproto"
)

func (s *Server) dispatchSlow(cs *connState, cmd []byte, args [][]byte) {
	switch {
	case netproto.EqFold(cmd, "SET"):
		if len(args) != 2 {
			cs.out = netproto.AppendErr(cs.out, errUsage, "SET <key> <value>")
			return
		}
		// The fast path rejected it, so one of the tokens is bad; report
		// the first offender, matching single-token parse order.
		if _, ok := netproto.ParseUint(args[0]); !ok {
			cs.appendBadInt(args[0])
			return
		}
		cs.appendBadInt(args[1])
	case netproto.EqFold(cmd, "GET"):
		if len(args) != 1 {
			cs.out = netproto.AppendErr(cs.out, errUsage, "GET <key>")
			return
		}
		cs.appendBadInt(args[0])
	case netproto.EqFold(cmd, "DEL"):
		if len(args) != 1 {
			cs.out = netproto.AppendErr(cs.out, errUsage, "DEL <key>")
			return
		}
		cs.appendBadInt(args[0])
	case netproto.EqFold(cmd, "MGET"):
		// Batched lookup through the index's native batch path: one
		// model-table load and amortized routing for the whole request —
		// and a single coalescer unit, so concurrent MGETs share rounds.
		if len(args) == 0 {
			cs.out = netproto.AppendErr(cs.out, errUsage, "MGET <key> [key ...]")
			return
		}
		if len(args) > maxBatch {
			cs.out = netproto.AppendErrLimit(cs.out, errTooBig, len(args), "keys", maxBatch, "MGET")
			return
		}
		keys := cs.gKeys[:0]
		for _, a := range args {
			k, ok := netproto.ParseUint(a)
			if !ok {
				cs.appendBadInt(a)
				return
			}
			keys = append(keys, k)
		}
		cs.gKeys = keys
		n := len(keys)
		cs.gVals = growU64(cs.gVals, n)
		cs.gFound = growBool(cs.gFound, n)
		err := s.co.Gets(keys, cs.gVals[:n], cs.gFound[:n])
		if err != nil {
			cs.appendEngineErr(err)
			cs.gKeys = cs.gKeys[:0]
			return
		}
		for i := 0; i < n; i++ {
			if cs.gFound[i] {
				cs.out = append(cs.out, "VALUE "...)
				cs.out = strconv.AppendUint(cs.out, cs.gVals[i], 10)
				cs.out = append(cs.out, '\n')
			} else {
				cs.out = append(cs.out, "NIL\n"...)
			}
			if !cs.budget() {
				cs.gKeys = cs.gKeys[:0]
				return
			}
		}
		cs.gKeys = cs.gKeys[:0]
		cs.out = append(cs.out, "END\n"...)
	case netproto.EqFold(cmd, "MPUT"):
		// Batched upsert via InsertBatch (one redo record in durable mode).
		if len(args) == 0 || len(args)%2 != 0 {
			cs.out = netproto.AppendErr(cs.out, errUsage, "MPUT <key> <value> [key value ...]")
			return
		}
		if len(args)/2 > maxBatch {
			cs.out = netproto.AppendErrLimit(cs.out, errTooBig, len(args)/2, "pairs", maxBatch, "MPUT")
			return
		}
		pairs := cs.gPairs[:0]
		for i := 0; i < len(args); i += 2 {
			k, ok := netproto.ParseUint(args[i])
			if !ok {
				cs.appendBadInt(args[i])
				return
			}
			v, ok := netproto.ParseUint(args[i+1])
			if !ok {
				cs.appendBadInt(args[i+1])
				return
			}
			pairs = append(pairs, altindex.KV{Key: k, Value: v})
		}
		cs.gPairs = pairs
		if err := s.co.Sets(pairs); err != nil {
			cs.appendEngineErr(err)
			cs.gPairs = cs.gPairs[:0]
			return
		}
		cs.out = append(cs.out, "OK "...)
		cs.out = strconv.AppendUint(cs.out, uint64(len(pairs)), 10)
		cs.out = append(cs.out, '\n')
		cs.gPairs = cs.gPairs[:0]
	case netproto.EqFold(cmd, "SCAN"):
		if len(args) != 2 {
			cs.out = netproto.AppendErr(cs.out, errUsage, "SCAN <start> <n>")
			return
		}
		start, ok := netproto.ParseUint(args[0])
		if !ok {
			cs.appendBadInt(args[0])
			return
		}
		n64, ok := netproto.ParseUint(args[1])
		if !ok {
			cs.out = netproto.AppendErrToken(cs.out, errBadInt, "", args[1], "is not a row count")
			return
		}
		n := 10000 // per-request cap
		if n64 < uint64(n) {
			n = int(n64)
		}
		// Stream the window through index.Walk: each pulled batch is
		// formatted with the netproto appenders into the pooled reply
		// buffer; budget() flushes at the high-water mark between pairs, so
		// a 10k-row SCAN never holds more than one flush window of reply
		// bytes.
		alive := true
		index.Walk(s.idx, start, ^uint64(0), n, func(k, v uint64) bool {
			cs.out = netproto.AppendPair(cs.out, k, v)
			alive = cs.budget()
			return alive
		})
		if !alive {
			return // stop streaming into a dead socket
		}
		cs.out = append(cs.out, "END\n"...)
	case netproto.EqFold(cmd, "LEN"):
		cs.out = append(cs.out, "VALUE "...)
		cs.out = strconv.AppendUint(cs.out, uint64(s.idx.Len()), 10)
		cs.out = append(cs.out, '\n')
	case netproto.EqFold(cmd, "STATS"):
		st := s.idx.StatsMap()
		if s.dur != nil {
			for k, v := range s.dur.Stats() {
				st[k] = v
			}
		}
		for k, v := range s.net.snapshot() {
			st[k] = v
		}
		for k, v := range s.co.Stats() {
			st[k] = v
		}
		keys := make([]string, 0, len(st))
		for k := range st {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			cs.out = append(cs.out, "STAT "...)
			cs.out = append(cs.out, k...)
			cs.out = append(cs.out, ' ')
			cs.out = strconv.AppendInt(cs.out, st[k], 10)
			cs.out = append(cs.out, '\n')
		}
		cs.out = append(cs.out, "END\n"...)
	default:
		// Uppercase the echoed command name, matching the historical
		// strings.ToUpper-based reply.
		up := make([]byte, len(cmd))
		for i, c := range cmd {
			if c >= 'a' && c <= 'z' {
				c -= 'a' - 'A'
			}
			up[i] = c
		}
		cs.out = netproto.AppendErrToken(cs.out, errUnknown, "command", up, "")
	}
}
