package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// Span names. Spans are recorded by the benchmark around its own calls
// into a layer; nothing inside the program is instrumented.
const (
	spWindow uint8 = iota
	spGet
	spUpdate
	spInsert
	spRemove
	spScanOp
	spScanCall
	spGetBatchOp
	spGetBatchCall
	spInsertBatchOp
	spInsertBatchCall
	spVerify
	spGetBurst
	spSetBurst
	spNetWrite
	spNetRead
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spWindow:          "window",
	spGet:             "altindex.Get",
	spUpdate:          "altindex.Update",
	spInsert:          "altindex.Insert",
	spRemove:          "altindex.Remove",
	spScanOp:          "op.scan",
	spScanCall:        "altindex.ScanAppend",
	spGetBatchOp:      "op.getbatch",
	spGetBatchCall:    "altindex.GetBatch",
	spInsertBatchOp:   "op.insertbatch",
	spInsertBatchCall: "altindex.InsertBatch",
	spVerify:          "verify",
	spGetBurst:        "burst.get",
	spSetBurst:        "burst.set",
	spNetWrite:        "net.write",
	spNetRead:         "net.read",
}

// span is one timed interval: times are nanoseconds since the slice
// started, parent is the id of the enclosing span (0 for a window) and op
// is shared by every span of one operation or burst.
type span struct {
	name       uint8
	id, parent uint32
	op         uint32
	start, end int64
}

// spanLog keeps spans in memory until the slice ends.
type spanLog struct {
	spans    []span
	failures [numSpanNames]int64
}

func (l *spanLog) add(name uint8, parent, op uint32, start, end int64) uint32 {
	id := uint32(len(l.spans) + 1)
	l.spans = append(l.spans, span{name: name, id: id, parent: parent, op: op, start: start, end: end})
	return id
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, s := range l.spans {
		line = append(line[:0], `{"name":"`...)
		line = append(line, spanNames[s.name]...)
		line = append(line, `","id":`...)
		line = strconv.AppendUint(line, uint64(s.id), 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendUint(line, uint64(s.parent), 10)
		line = append(line, `,"op_id":`...)
		line = strconv.AppendUint(line, uint64(s.op), 10)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow is one line of the traced run's per-layer table.
type layerRow struct {
	Name     string  `json:"name"`
	Count    int64   `json:"count"`
	BusyMS   float64 `json:"busy_ms"`
	SelfMS   float64 `json:"self_ms"`
	Failures int64   `json:"failures"`
}

// table sums spans by name. Self time is a span's duration minus the
// durations of its direct children; children of one span never overlap
// here because one goroutine records them in sequence.
func (l *spanLog) table() []layerRow {
	var count, busy, child [numSpanNames]int64
	for _, s := range l.spans {
		d := s.end - s.start
		count[s.name]++
		busy[s.name] += d
		if s.parent != 0 {
			child[l.spans[s.parent-1].name] += d
		}
	}
	var rows []layerRow
	for n := range spanNames {
		if count[n] == 0 {
			continue
		}
		rows = append(rows, layerRow{
			Name:     spanNames[n],
			Count:    count[n],
			BusyMS:   float64(busy[n]) / 1e6,
			SelfMS:   float64(busy[n]-child[n]) / 1e6,
			Failures: l.failures[n],
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

func printLayerTable(w io.Writer, workload string, rows []layerRow) {
	fmt.Fprintf(w, "spans of %s (sampled ops only)\n", workload)
	fmt.Fprintf(w, "  %-24s %10s %12s %12s %9s\n", "span", "count", "busy_ms", "self_ms", "failures")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-24s %10d %12.3f %12.3f %9d\n", r.Name, r.Count, r.BusyMS, r.SelfMS, r.Failures)
	}
}
