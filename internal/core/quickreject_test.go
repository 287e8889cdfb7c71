package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/arch"
)

// TestQuickRejectConcurrent: QuickReject's pooled index arenas are never
// shared between calls in flight. Goroutines screening a mix of legal and
// broken trees of different shapes at once get the answers a serial pass
// gives.
func TestQuickRejectConcurrent(t *testing.T) {
	g := sec42Graph(32, 64, 64, 32)
	spec := arch.Cloud()
	roots := []*Node{sec42Tree(g)}
	for _, m := range staticMutations() {
		roots = append(roots, m.mut(g, sec42Tree(g)))
	}
	answer := func(root *Node) string {
		return fmt.Sprint(QuickReject(root, g, spec, Options{}))
	}
	want := make([]string, len(roots))
	for i, root := range roots {
		want[i] = answer(root)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				i := (w + r) % len(roots)
				if got := answer(roots[i]); got != want[i] {
					t.Errorf("tree %d: concurrent QuickReject = %s, serial = %s", i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
