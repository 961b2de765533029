package core

import (
	"testing"

	"altindex/internal/index"
	"altindex/internal/indextest"
)

func TestConformance(t *testing.T) {
	indextest.Run(t, func() index.Concurrent { return New(Options{}) })
}

func TestConformanceSmallErrorBound(t *testing.T) {
	// A tight ε maximises ART-layer traffic.
	indextest.Run(t, func() index.Concurrent {
		return New(Options{ErrorBound: 32})
	})
}

// TestConformanceNoFastPointers runs the suite on models without a fast
// pointer, so every ART lookup starts at the root.
func TestConformanceNoFastPointers(t *testing.T) {
	indextest.Run(t, func() index.Concurrent {
		return newRootOnly(Options{ErrorBound: 32})
	})
}

func TestConformanceNoRetraining(t *testing.T) {
	indextest.Run(t, func() index.Concurrent {
		return New(Options{DisableRetraining: true})
	})
}
