package telemetry

import (
	"runtime"
	"sync"
	"time"
)

// Sampler default cadence and ring capacity: one sample per second kept
// for ten minutes. Long batches see a sliding window; short runs keep
// every sample.
const (
	DefaultSampleInterval = time.Second
	defaultSampleCapacity = 600
)

// RuntimeSample is one point-in-time reading of process health taken by
// the Sampler: heap pressure, GC activity, goroutine count, and — when a
// Progress reporter is attached — batch progress.
type RuntimeSample struct {
	// At is the offset from the sampler's start (the recorder epoch when
	// the sampler is attached via Recorder.AttachSampler before Start).
	At time.Duration
	// HeapBytes is runtime.MemStats.HeapAlloc.
	HeapBytes uint64
	// GCPauseTotal is the cumulative stop-the-world pause time.
	GCPauseTotal time.Duration
	// GCCycles is the number of completed GC cycles.
	GCCycles uint32
	// Goroutines is the live goroutine count.
	Goroutines int
	// ProgressDone/ProgressTotal mirror the attached Progress reporter
	// (both 0 when none is attached).
	ProgressDone  int64
	ProgressTotal int64
}

// Sampler periodically records RuntimeSamples into a fixed-size ring
// buffer. It is safe for concurrent use, and every method is nil-receiver
// safe so pipelines can thread one through unconditionally. Start launches
// the background ticker; Stop takes one final sample and waits for the
// ticker goroutine to exit, so a stopped sampler leaks nothing.
type Sampler struct {
	interval time.Duration

	mu       sync.Mutex
	epoch    time.Time
	ring     []RuntimeSample
	next     int // ring write cursor
	filled   bool
	progress *Progress

	quit chan struct{}
	wg   sync.WaitGroup
	stop sync.Once
}

// NewSampler returns a stopped sampler. interval <= 0 means
// DefaultSampleInterval; capacity <= 0 means the default ten-minute ring.
func NewSampler(interval time.Duration, capacity int) *Sampler {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	if capacity <= 0 {
		capacity = defaultSampleCapacity
	}
	return &Sampler{
		interval: interval,
		epoch:    time.Now(),
		ring:     make([]RuntimeSample, capacity),
		quit:     make(chan struct{}),
	}
}

// Interval reports the sampling cadence (0 on a nil sampler).
func (s *Sampler) Interval() time.Duration {
	if s == nil {
		return 0
	}
	return s.interval
}

// SetEpoch aligns sample offsets with an external clock origin (the
// recorder's epoch, so snapshot spans and runtime samples share a
// timeline). Call before Start. Safe on a nil sampler.
func (s *Sampler) SetEpoch(epoch time.Time) {
	if s == nil || epoch.IsZero() {
		return
	}
	s.mu.Lock()
	s.epoch = epoch
	s.mu.Unlock()
}

// SetProgress attaches the batch progress source folded into every
// subsequent sample. Safe on a nil sampler.
func (s *Sampler) SetProgress(p *Progress) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.progress = p
	s.mu.Unlock()
}

// Start records one immediate sample and launches the ticker goroutine.
// Safe on a nil sampler; starting twice is a no-op for the second caller
// only if Stop was not called in between (don't).
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.sampleNow()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(s.interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.sampleNow()
			case <-s.quit:
				return
			}
		}
	}()
}

// Stop halts the ticker, waits for the goroutine to exit, and records one
// final sample so even sub-interval runs end with a fresh reading. Safe on
// a nil sampler and idempotent.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.stop.Do(func() {
		close(s.quit)
		s.wg.Wait()
		s.sampleNow()
	})
}

// sampleNow takes one reading and pushes it into the ring.
func (s *Sampler) sampleNow() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sample := RuntimeSample{
		HeapBytes:    ms.HeapAlloc,
		GCPauseTotal: time.Duration(ms.PauseTotalNs),
		GCCycles:     ms.NumGC,
		Goroutines:   runtime.NumGoroutine(),
	}
	s.mu.Lock()
	sample.At = time.Since(s.epoch)
	if p := s.progress; p != nil {
		sample.ProgressDone = p.Done()
		sample.ProgressTotal = p.Total()
	}
	s.record(sample)
	s.mu.Unlock()
}

// record pushes one sample; callers hold s.mu.
func (s *Sampler) record(sample RuntimeSample) {
	s.ring[s.next] = sample
	s.next++
	if s.next == len(s.ring) {
		s.next = 0
		s.filled = true
	}
}

// Samples returns the buffered timeseries oldest-first. Safe on a nil
// sampler (returns nil).
func (s *Sampler) Samples() []RuntimeSample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.filled {
		return append([]RuntimeSample(nil), s.ring[:s.next]...)
	}
	out := make([]RuntimeSample, 0, len(s.ring))
	out = append(out, s.ring[s.next:]...)
	out = append(out, s.ring[:s.next]...)
	return out
}
