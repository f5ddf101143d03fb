package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zac/internal/engine"
)

// fastPolicy keeps retry/breaker tests instant: no real backoff sleeps, a
// two-failure trip threshold, and a short reprobe window.
func fastPolicy() engine.RetryPolicy {
	return engine.RetryPolicy{
		Attempts:      2,
		BaseDelay:     time.Microsecond,
		FailThreshold: 2,
		Reprobe:       20 * time.Millisecond,
		Sleep:         func(time.Duration) {},
	}
}

// faultyCache opens a DiskCache whose every I/O operation consults plan.
func faultyCache(t *testing.T, plan *Plan) *engine.DiskCache {
	t.Helper()
	d, err := engine.OpenDiskCacheFS(t.TempDir(), 0, WrapFS(engine.OSFS, plan))
	if err != nil {
		t.Fatal(err)
	}
	d.SetRetryPolicy(fastPolicy())
	return d
}

// TestDiskCachePartialWriteRecovery injects a silent short write under the
// first Put: the entry commits torn, the reader's checksum must refuse it,
// and the next Put must heal the slot.
func TestDiskCachePartialWriteRecovery(t *testing.T) {
	plan := NewPlan(1, Rule{Point: PointWrite, Hits: []uint64{1}, Kind: KindPartialWrite})
	d := faultyCache(t, plan)
	payload := bytes.Repeat([]byte("zac!"), 256)

	if err := d.Put("k", payload); err != nil {
		t.Fatalf("silent partial write surfaced an error: %v", err)
	}
	if got, ok := d.Get("k"); ok {
		t.Fatalf("served a torn entry: %d bytes", len(got))
	}
	if st := d.Stats(); st.Corrupt == 0 {
		t.Fatalf("torn entry not counted corrupt: %+v", st)
	}
	if st := plan.Stats(PointWrite); st.Fired != 1 {
		t.Fatalf("fault did not fire exactly once: %+v", st)
	}

	// Self-heal: rewriting the key replaces the torn entry.
	if err := d.Put("k", payload); err != nil {
		t.Fatalf("healing Put: %v", err)
	}
	got, ok := d.Get("k")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("healed entry wrong: ok=%v len=%d", ok, len(got))
	}
}

// TestDiskCacheTornRenameRecovery injects a torn commit: the rename reports
// success but only a prefix of the staged bytes lands at the destination.
func TestDiskCacheTornRenameRecovery(t *testing.T) {
	plan := NewPlan(2, Rule{Point: PointRename, Hits: []uint64{1}, Kind: KindTornRename, Fraction: 0.4})
	d := faultyCache(t, plan)
	payload := bytes.Repeat([]byte{0xAB}, 4096)

	if err := d.Put("k", payload); err != nil {
		t.Fatalf("torn rename surfaced an error: %v", err)
	}
	if _, ok := d.Get("k"); ok {
		t.Fatal("served a torn-renamed entry")
	}
	if st := d.Stats(); st.Corrupt == 0 {
		t.Fatalf("torn rename not counted corrupt: %+v", st)
	}
	if err := d.Put("k", payload); err != nil {
		t.Fatalf("healing Put: %v", err)
	}
	if got, ok := d.Get("k"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("healed entry wrong: ok=%v len=%d", ok, len(got))
	}
}

// TestDiskCacheBitFlipNeverServed flips one bit of the bytes a read returns;
// the checksum must turn that into a miss, never a wrong payload.
func TestDiskCacheBitFlipNeverServed(t *testing.T) {
	plan := NewPlan(3, Rule{Point: PointReadFile, Hits: []uint64{1}, Kind: KindBitFlip})
	d := faultyCache(t, plan)
	payload := bytes.Repeat([]byte("corrupt-me"), 100)

	if err := d.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := d.Get("k"); ok && !bytes.Equal(got, payload) {
		t.Fatal("served bit-flipped bytes")
	} else if ok {
		t.Fatal("flip did not corrupt the read (fault not exercised)")
	}
	// The poisoned read discarded the entry; a rewrite restores service.
	if err := d.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := d.Get("k"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("healed entry wrong: ok=%v", ok)
	}
}

// TestDiskCacheBreakerTripAndRecover drives the circuit breaker through its
// whole lifecycle with injected I/O errors: closed → open under persistent
// failures (operations then short-circuit), half-open reprobe once the
// window elapses, closed again when the disk is healthy.
func TestDiskCacheBreakerTripAndRecover(t *testing.T) {
	plan := NewPlan(4,
		Rule{Point: PointCreateTemp, Prob: 1, Kind: KindError},
		Rule{Point: PointReadFile, Prob: 1, Kind: KindError},
	)
	plan.SetEnabled(false)
	d := faultyCache(t, plan)
	payload := []byte("survivor")
	if err := d.Put("warm", payload); err != nil {
		t.Fatal(err)
	}
	plan.SetEnabled(true)

	// Two consecutive failed operations (each already retried) trip the
	// breaker.
	if err := d.Put("k1", payload); !errors.Is(err, ErrInjected) {
		t.Fatalf("Put under fault = %v, want injected error", err)
	}
	if err := d.Put("k2", payload); !errors.Is(err, ErrInjected) {
		t.Fatalf("Put under fault = %v, want injected error", err)
	}
	st := d.Stats()
	if st.BreakerState != engine.BreakerOpen || st.BreakerOpens == 0 {
		t.Fatalf("breaker did not open: %+v", st)
	}
	if st.Retries == 0 || st.IOFailures < 2 {
		t.Fatalf("retry accounting missing: %+v", st)
	}

	// Open breaker: operations short-circuit without touching the disk.
	if err := d.Put("k3", payload); !errors.Is(err, engine.ErrDiskUnavailable) {
		t.Fatalf("Put with open breaker = %v, want ErrDiskUnavailable", err)
	}
	if _, ok := d.Get("warm"); ok {
		t.Fatal("Get served through an open breaker")
	}
	if st := d.Stats(); st.BreakerSkips == 0 {
		t.Fatalf("skips not counted: %+v", st)
	}

	// Faults stop; after the reprobe window one trial closes the breaker.
	plan.SetEnabled(false)
	time.Sleep(fastPolicy().Reprobe + 10*time.Millisecond)
	if got, ok := d.Get("warm"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("reprobe Get failed: ok=%v", ok)
	}
	if st := d.Stats(); st.BreakerState != engine.BreakerClosed {
		t.Fatalf("breaker did not close after recovery: %+v", st)
	}
	if err := d.Put("k3", payload); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	if got, ok := d.Get("k3"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("entry written after recovery wrong: ok=%v", ok)
	}
}

// TestDiskCacheChaosSelfHeals runs a pinned-seed randomized fault schedule —
// partial writes, torn renames, bit flips, and outright I/O errors — over
// many keys and asserts the two chaos invariants: a Get that reports a hit
// always returns the exact bytes that were Put, and once the faults stop the
// cache converges back to serving every key correctly.
func TestDiskCacheChaosSelfHeals(t *testing.T) {
	plan := NewPlan(0xC4A05,
		Rule{Point: PointWrite, Prob: 0.3, Kind: KindPartialWrite},
		Rule{Point: PointRename, Prob: 0.3, Kind: KindTornRename},
		Rule{Point: PointReadFile, Prob: 0.2, Kind: KindBitFlip},
		Rule{Point: PointMkdirAll, Prob: 0.1, Kind: KindError},
	)
	d := faultyCache(t, plan)

	pay := func(i int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("payload-%03d.", i)), 50)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%03d", i)
		d.Put(key, pay(i)) // errors allowed under fault; corruption is not
		if got, ok := d.Get(key); ok && !bytes.Equal(got, pay(i)) {
			t.Fatalf("chaos served corrupt bytes for %s", key)
		}
	}
	if plan.Fired("fs.") == 0 {
		t.Fatal("chaos schedule fired no faults; test exercised nothing")
	}

	// Faults stop: every key must heal on rewrite.
	plan.SetEnabled(false)
	time.Sleep(fastPolicy().Reprobe + 10*time.Millisecond) // let any open breaker reprobe
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%03d", i)
		if err := d.Put(key, pay(i)); err != nil {
			t.Fatalf("healing Put %s: %v", key, err)
		}
		if got, ok := d.Get(key); !ok || !bytes.Equal(got, pay(i)) {
			t.Fatalf("post-chaos Get %s: ok=%v", key, ok)
		}
	}
	if st := d.Stats(); st.BreakerState != engine.BreakerClosed {
		t.Fatalf("breaker not closed after chaos: %+v", st)
	}
}

// TestFSLatencyUsesSetSleep runs a file-system latency fault through a
// recording sleeper: the read waits on the plan's sleeper for the rule's
// latency, then returns the file unchanged.
func TestFSLatencyUsesSetSleep(t *testing.T) {
	plan := NewPlan(1, Rule{Point: PointReadFile, Hits: []uint64{1}, Kind: KindLatency, Latency: time.Hour})
	var slept []time.Duration
	plan.SetSleep(func(d time.Duration) { slept = append(slept, d) })
	name := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(name, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	fsys := WrapFS(engine.OSFS, plan)
	for range 2 {
		raw, err := fsys.ReadFile(name)
		if err != nil || string(raw) != "payload" {
			t.Fatalf("ReadFile = %q, %v; want the file's bytes", raw, err)
		}
	}
	if len(slept) != 1 || slept[0] != time.Hour {
		t.Fatalf("slept %v, want one sleep of 1h (the fault fires on hit 1 only)", slept)
	}
}
