package bench

import (
	"altindex/internal/alex"
	"altindex/internal/art"
	"altindex/internal/core"
	"altindex/internal/finedex"
	"altindex/internal/index"
	"altindex/internal/lipp"
	"altindex/internal/xindex"
)

// NamedFactory pairs an index constructor with the display name the paper
// uses for it.
type NamedFactory struct {
	Name string
	New  func() index.Concurrent
}

// ALT returns the ALT-index factory with default (paper-recommended)
// options.
func ALT() NamedFactory {
	return NamedFactory{"ALT-index", func() index.Concurrent { return core.New(core.Options{}) }}
}

// ALTWith returns an ALT-index factory with explicit options, used by the
// ablation experiments.
func ALTWith(name string, opts core.Options) NamedFactory {
	return NamedFactory{name, func() index.Concurrent { return core.New(opts) }}
}

// Competitors returns the five baseline factories in the paper's order.
func Competitors() []NamedFactory {
	return []NamedFactory{
		{"ALEX+", func() index.Concurrent { return alex.New() }},
		{"LIPP+", func() index.Concurrent { return lipp.New() }},
		{"FINEdex", func() index.Concurrent { return finedex.New() }},
		{"XIndex", func() index.Concurrent { return xindex.New() }},
		{"ART", func() index.Concurrent { return art.New(nil) }},
	}
}

// All returns ALT-index followed by every competitor (the full Fig 7/8/9
// line-up).
func All() []NamedFactory {
	return append([]NamedFactory{ALT()}, Competitors()...)
}

// ByName returns the factory with the given display name, or ok=false.
func ByName(name string) (NamedFactory, bool) {
	for _, f := range All() {
		if f.Name == name {
			return f, true
		}
	}
	return NamedFactory{}, false
}

// FINEdexWith returns a FINEdex factory with an explicit error bound (the
// Fig 3b sweep).
func FINEdexWith(errBound int) NamedFactory {
	return NamedFactory{"FINEdex", func() index.Concurrent {
		ix := finedex.New()
		ix.ErrBound = errBound
		return ix
	}}
}

// XIndexWith returns an XIndex factory with an explicit error bound (the
// Fig 3b sweep).
func XIndexWith(errBound int) NamedFactory {
	return NamedFactory{"XIndex", func() index.Concurrent {
		ix := xindex.New()
		ix.ErrBound = errBound
		return ix
	}}
}
