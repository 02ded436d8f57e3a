package telemetry

import (
	"io"
	"testing"
	"time"
)

// TestSamplerRingWraparound fills a tiny ring past capacity and checks the
// window slides: oldest samples fall off, order stays oldest-first.
func TestSamplerRingWraparound(t *testing.T) {
	s := NewSampler(time.Hour, 3)
	for i := 0; i < 5; i++ {
		s.sampleNow()
	}
	got := s.Samples()
	if len(got) != 3 {
		t.Fatalf("samples = %d, want ring capacity 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].At < got[i-1].At {
			t.Fatalf("samples out of order: %v after %v", got[i].At, got[i-1].At)
		}
	}
}

// TestSamplerPartialRing checks the pre-wraparound view: only taken
// samples are returned, capacity does not pad.
func TestSamplerPartialRing(t *testing.T) {
	s := NewSampler(time.Hour, 8)
	if got := s.Samples(); len(got) != 0 {
		t.Fatalf("fresh sampler has %d samples", len(got))
	}
	s.sampleNow()
	s.sampleNow()
	if got := s.Samples(); len(got) != 2 {
		t.Fatalf("samples = %d, want 2", len(got))
	}
}

// TestSamplerStartStop exercises the real ticker goroutine: Start takes an
// immediate sample, Stop joins the goroutine and appends a final one, and
// a second Stop is a harmless no-op.
func TestSamplerStartStop(t *testing.T) {
	s := NewSampler(time.Millisecond, 64)
	s.Start()
	time.Sleep(5 * time.Millisecond)
	s.Stop()
	n := len(s.Samples())
	if n < 2 {
		t.Fatalf("samples after a 5ms run at 1ms cadence = %d, want >= 2", n)
	}
	s.Stop()
	if got := len(s.Samples()); got != n {
		t.Fatalf("second Stop changed the ring: %d -> %d", n, got)
	}
	for _, smp := range s.Samples() {
		if smp.HeapBytes == 0 || smp.Goroutines <= 0 {
			t.Fatalf("sample missing runtime readings: %+v", smp)
		}
	}
}

// TestSamplerProgressFold checks an attached Progress reporter's counts
// land in subsequent samples.
func TestSamplerProgressFold(t *testing.T) {
	s := NewSampler(time.Hour, 4)
	p := NewProgress(io.Discard, "scan", 10, time.Hour)
	defer p.Stop()
	p.Step(1)
	p.Step(2)
	s.SetProgress(p)
	s.sampleNow()
	got := s.Samples()
	if len(got) != 1 || got[0].ProgressDone != 2 || got[0].ProgressTotal != 10 {
		t.Fatalf("progress fold = %+v, want one sample with done=2 total=10", got)
	}
}

// TestSamplerNilSafety calls every method through a nil sampler.
func TestSamplerNilSafety(t *testing.T) {
	var s *Sampler
	s.Start()
	s.Stop()
	s.SetEpoch(time.Now())
	s.SetProgress(nil)
	if s.Samples() != nil {
		t.Fatal("nil sampler returned samples")
	}
	if s.Interval() != 0 {
		t.Fatal("nil sampler reported an interval")
	}
}

// TestRecorderSamplerSnapshot checks AttachSampler aligns the epoch and
// folds the timeseries into Snapshot (phase included).
func TestRecorderSamplerSnapshot(t *testing.T) {
	r := New()
	r.SetPhase("learn")
	s := NewSampler(50*time.Millisecond, 16)
	r.AttachSampler(s)
	s.sampleNow()
	snap := r.Snapshot()
	if snap.Phase != "learn" {
		t.Fatalf("phase = %q", snap.Phase)
	}
	if snap.SampleEvery != 50*time.Millisecond {
		t.Fatalf("sampleEvery = %v", snap.SampleEvery)
	}
	if len(snap.Runtime) != 1 || snap.Runtime[0].HeapBytes == 0 {
		t.Fatalf("runtime section = %+v", snap.Runtime)
	}
}
