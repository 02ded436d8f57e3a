package telemetry

import (
	"strconv"
	"sync"
	"testing"
)

// TestNilSpanSafety pins the contract that instrumented code can start and
// annotate spans unconditionally: a nil recorder yields a nil span, and
// every span method no-ops on nil.
func TestNilSpanSafety(t *testing.T) {
	var r *Recorder
	root := r.StartSpan("root", A("k", "v"))
	if root != nil {
		t.Fatal("nil recorder should return a nil span")
	}
	root.SetAttr("late", "x")
	child := root.StartChild("child")
	child.SetAttr("k", "v")
	child.End()
	root.End()
	if s := r.Snapshot(); len(s.Spans) != 0 {
		t.Fatal("nil recorder recorded spans")
	}
}

// TestSpanTree checks ids, parent links, attribute capture (including
// late SetAttr), and snapshot ordering for a small span tree.
func TestSpanTree(t *testing.T) {
	r := New()
	root := r.StartSpan("scan.batch", A("images", "2"))
	child := root.StartChild("scan.worker", A("worker", "0"))
	grand := child.StartChild("scan.image", A("task", "img-0"))
	grand.SetAttr("image", "img-0")
	grand.End()
	child.End()
	root.SetAttr("errors", "0")
	root.End()

	s := r.Snapshot()
	if len(s.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(s.Spans))
	}
	byName := map[string]SpanData{}
	for _, sp := range s.Spans {
		byName[sp.Name] = sp
	}
	rt, ch, gr := byName["scan.batch"], byName["scan.worker"], byName["scan.image"]
	if rt.Parent != 0 {
		t.Fatalf("root parent = %d, want 0", rt.Parent)
	}
	if ch.Parent != rt.ID || gr.Parent != ch.ID {
		t.Fatalf("parent links broken: root=%d child=%d/%d grand=%d/%d",
			rt.ID, ch.ID, ch.Parent, gr.ID, gr.Parent)
	}
	if rt.ID == ch.ID || ch.ID == gr.ID || rt.ID == gr.ID {
		t.Fatal("span ids must be unique")
	}
	if len(gr.Attrs) != 2 || gr.Attrs[0] != A("task", "img-0") || gr.Attrs[1] != A("image", "img-0") {
		t.Fatalf("grandchild attrs = %v", gr.Attrs)
	}
	if len(rt.Attrs) != 2 || rt.Attrs[1] != A("errors", "0") {
		t.Fatalf("SetAttr after StartSpan lost: %v", rt.Attrs)
	}
	// Children start at or after their parent and end within the
	// snapshot's recorded window.
	if ch.Start < rt.Start || gr.Start < ch.Start {
		t.Fatalf("child started before parent: root=%v child=%v grand=%v", rt.Start, ch.Start, gr.Start)
	}
	for _, sp := range s.Spans {
		if sp.Dur < 0 {
			t.Fatalf("span %q has negative duration %v", sp.Name, sp.Dur)
		}
	}
	// Snapshot orders spans by start offset, then id.
	for i := 1; i < len(s.Spans); i++ {
		a, b := s.Spans[i-1], s.Spans[i]
		if a.Start > b.Start || (a.Start == b.Start && a.ID > b.ID) {
			t.Fatalf("spans out of order at %d: %+v then %+v", i, a, b)
		}
	}
}

// TestSpanConcurrentChildren exercises the pool idiom — many goroutines
// opening children under one coordinator-owned parent — under the race
// detector.
func TestSpanConcurrentChildren(t *testing.T) {
	const workers, perWorker = 8, 50
	r := New()
	root := r.StartSpan("pool")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := root.StartChild("worker", A("worker", strconv.Itoa(w)))
			for i := 0; i < perWorker; i++ {
				item := ws.StartChild("item")
				item.End()
			}
			ws.End()
		}(w)
	}
	wg.Wait()
	root.End()

	s := r.Snapshot()
	want := 1 + workers + workers*perWorker
	if len(s.Spans) != want {
		t.Fatalf("spans = %d, want %d", len(s.Spans), want)
	}
	ids := map[int64]string{}
	workerIDs := map[int64]bool{}
	var rootID int64
	for _, sp := range s.Spans {
		if _, dup := ids[sp.ID]; dup {
			t.Fatalf("duplicate span id %d", sp.ID)
		}
		ids[sp.ID] = sp.Name
		switch sp.Name {
		case "pool":
			rootID = sp.ID
		case "worker":
			workerIDs[sp.ID] = true
		}
	}
	for _, sp := range s.Spans {
		switch sp.Name {
		case "worker":
			if sp.Parent != rootID {
				t.Fatalf("worker span parent = %d, want root %d", sp.Parent, rootID)
			}
		case "item":
			if !workerIDs[sp.Parent] {
				t.Fatalf("item span parent = %d is not a worker span", sp.Parent)
			}
		}
	}
}

// TestNilSpanAllocatesNothing pins what lets hot loops open spans
// unconditionally: with telemetry off, starting a span or a child with
// attributes, annotating and ending it allocate nothing.
func TestNilSpanAllocatesNothing(t *testing.T) {
	var r *Recorder
	id := strconv.Itoa(12345)
	if n := testing.AllocsPerRun(100, func() {
		root := r.StartSpan("root", A("image", id), A("worker", "1"))
		child := root.StartChild("child", A("image", id), A("worker", "1"))
		child.SetAttr("k", id)
		child.End()
		root.End()
	}); n != 0 {
		t.Fatalf("nil spans allocated %.0f times per run, want 0", n)
	}
}

// TestLiveSpanAttrsOwned checks that a live span keeps its own copy of
// its attributes: the caller's slice may change after the call.
func TestLiveSpanAttrsOwned(t *testing.T) {
	r := New()
	attrs := []Attr{A("k", "v")}
	sp := r.StartSpan("root", attrs...)
	attrs[0] = A("k", "changed")
	sp.End()
	snap := r.Snapshot()
	if len(snap.Spans) != 1 || len(snap.Spans[0].Attrs) != 1 || snap.Spans[0].Attrs[0].Value != "v" {
		t.Fatalf("span attributes = %+v, want [k=v]", snap.Spans)
	}
}
