// Goroutines: instrumenting goroutine-structured code.
//
// Go's goroutines carry no task-graph structure, which is what makes
// applying the paper's detector to Go "less natural": the detector needs
// the restricted fork-join discipline and a single consumption order.
// The goinstr frontend imposes the discipline while letting tasks run
// truly concurrently: every task streams its events into a bounded
// queue, and a merge stage linearizes the streams into the canonical
// fork-first order before they reach the single-consumer detector (the
// Theorem 4 delayed-traversal contract). Verdicts are identical to the
// serialized schedule's, which remains available as an option
// (race2d.WithSerialIngest).
//
// Migration note: frontends are configured through functional options —
// race2d.DetectGoroutines(body, race2d.WithQueueCapacity(n),
// race2d.WithContext(ctx), ...).
//
// The example is a miniature parallel build system: workers compile
// units, a linker joins the workers it depends on. One dependency edge is
// forgotten in the buggy variant, and the detector catches the resulting
// race on the object-file location.
//
// Run with: go run ./examples/goroutines
package main

import (
	"fmt"
	"log"

	race2d "repro"
)

func object(unit int) race2d.Addr { return race2d.Addr(0x0B0 + unit) }

const binary = race2d.Addr(0xB1)

func build(forgetDependency bool) (*race2d.Report, error) {
	// Options configure the run: bounded per-task event queues keep
	// memory flat no matter how fast the workers emit.
	return race2d.DetectGoroutines(func(t *race2d.GoTask) {
		// Compile three units on their own goroutines.
		var workers []race2d.GoHandle
		for unit := 0; unit < 3; unit++ {
			u := unit
			workers = append(workers, t.Go(func(w *race2d.GoTask) {
				w.Write(object(u)) // produce the object file
			}))
		}
		// Link: join the workers (newest first — they stack leftward),
		// then read every object and write the binary.
		for i := len(workers) - 1; i >= 0; i-- {
			if forgetDependency && i == 0 {
				break // BUG: unit 0 is linked without being awaited
			}
			t.Join(workers[i])
		}
		for unit := 0; unit < 3; unit++ {
			t.Read(object(unit))
		}
		t.Write(binary)
	}, race2d.WithQueueCapacity(256))
}

func main() {
	clean, err := build(false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("complete build: %d goroutine tasks -> races=%d\n", clean.Tasks, clean.Count)
	if clean.Racy() {
		log.Fatalf("complete build flagged: %v", clean.Races)
	}

	buggy, err := build(true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("buggy build:    %d goroutine tasks -> races=%d\n", buggy.Tasks, buggy.Count)
	if !buggy.Racy() {
		log.Fatal("forgotten dependency not detected")
	}
	fmt.Printf("first (precise) report: %v\n", buggy.Races[0])
	fmt.Println("goroutines OK: missing join flagged as a race")
}
