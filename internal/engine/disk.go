package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// diskMagic versions the on-disk entry format; bumping it invalidates every
// existing cache file (they read as corrupt and are discarded).
const diskMagic = "zacdisk1"

// diskSuffix is the extension of committed cache entries; writers stage
// under a ".tmp" name first, so readers never observe a half-written entry.
const diskSuffix = ".zc"

// ErrDiskUnavailable is returned by Put while the disk tier's circuit
// breaker is open: persistent I/O failures have degraded the cache to
// memory-only operation until a reprobe succeeds.
var ErrDiskUnavailable = errors.New("engine: disk tier unavailable (circuit breaker open)")

// RetryPolicy shapes the disk tier's transient-I/O handling: how often an
// operation is retried with jittered exponential backoff, and when the
// circuit breaker opens and reprobes. The zero value of any field selects
// its default.
type RetryPolicy struct {
	// Attempts is the total tries per operation, including the first
	// (default 3).
	Attempts int
	// BaseDelay is the backoff before the first retry; it doubles per retry
	// and carries ±50% jitter (default 500µs).
	BaseDelay time.Duration
	// FailThreshold is the number of consecutive failed operations (each
	// already retried Attempts times) that opens the breaker (default 3).
	FailThreshold int
	// Reprobe is how long the breaker stays open before letting one trial
	// operation through (default 1s).
	Reprobe time.Duration
	// Sleep overrides the backoff sleeper; nil selects time.Sleep. Tests
	// substitute a no-op to keep retry loops fast.
	Sleep func(time.Duration)
}

// DefaultRetryPolicy returns the production retry/breaker configuration.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Attempts: 3, BaseDelay: 500 * time.Microsecond, FailThreshold: 3, Reprobe: time.Second}
}

// withDefaults fills zero fields from DefaultRetryPolicy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	def := DefaultRetryPolicy()
	if p.Attempts <= 0 {
		p.Attempts = def.Attempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = def.BaseDelay
	}
	if p.FailThreshold <= 0 {
		p.FailThreshold = def.FailThreshold
	}
	if p.Reprobe <= 0 {
		p.Reprobe = def.Reprobe
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// Breaker lifecycle states (see BreakerState).
const (
	// BreakerClosed is normal operation: the disk tier is healthy.
	BreakerClosed = "closed"
	// BreakerOpen means persistent I/O failures tripped the breaker: every
	// disk operation is skipped (reads miss, writes refuse) until the
	// reprobe interval elapses.
	BreakerOpen = "open"
	// BreakerHalfOpen means the reprobe interval elapsed and one trial
	// operation is in flight; its outcome closes or re-opens the breaker.
	BreakerHalfOpen = "half-open"
)

// DiskCache is a content-addressed byte store on the local filesystem: keys
// hash to fan-out subdirectories, entries carry a checksum header, writes go
// through a temp file plus atomic rename, and corrupt or truncated entries
// are detected on read and silently discarded as misses. It is safe for
// concurrent use within a process and for concurrent readers across
// processes sharing the directory (the rename commit is atomic).
//
// All I/O goes through a narrow FS seam, and transient failures are retried
// with jittered backoff; persistent failures open a circuit breaker that
// degrades the tier to fast no-ops (reads miss, writes refuse) until a
// reprobe succeeds — so a dying disk slows nothing down and a recovered one
// is picked back up automatically.
type DiskCache struct {
	dir      string
	maxBytes int64
	fsys     FS
	policy   RetryPolicy

	mu      sync.Mutex // guards size/entries accounting and eviction scans
	size    int64
	entries int

	bmu        sync.Mutex // guards the breaker state machine
	consecFail int
	state      string
	openUntil  time.Time

	hits, misses, corrupt, evicted atomic.Uint64
	retries, ioFailures            atomic.Uint64
	breakerOpens, breakerSkips     atomic.Uint64
}

// OpenDiskCache opens (creating if needed) a disk cache rooted at dir.
// maxBytes bounds the total payload+header bytes on disk (0 = unbounded);
// when the directory is over the bound — at open, or after a Put — the
// least recently read entries are evicted. Stale temp files from crashed
// writers are removed. Size accounting is refreshed from the filesystem on
// every eviction scan, so a directory shared with other writers converges
// back under the bound whenever this process's own writes trigger one.
func OpenDiskCache(dir string, maxBytes int64) (*DiskCache, error) {
	return OpenDiskCacheFS(dir, maxBytes, OSFS)
}

// OpenDiskCacheFS is OpenDiskCache over an explicit filesystem seam — the
// entry point the fault-injection harness uses to drive the cache's
// recovery paths with injected errors, latency, and corruption.
func OpenDiskCacheFS(dir string, maxBytes int64, fsys FS) (*DiskCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("engine: disk cache directory must not be empty")
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &DiskCache{dir: dir, maxBytes: maxBytes, fsys: fsys, policy: DefaultRetryPolicy().withDefaults(), state: BreakerClosed}
	err := fsys.WalkDir(dir, func(path string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		switch {
		case strings.HasSuffix(path, ".tmp"):
			fsys.Remove(path) // leftover from an interrupted writer
		case strings.HasSuffix(path, diskSuffix):
			if info, err := de.Info(); err == nil {
				d.size += info.Size()
				d.entries++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if d.maxBytes > 0 && d.size > d.maxBytes {
		d.evict("")
	}
	return d, nil
}

// SetRetryPolicy replaces the retry/breaker configuration (zero fields keep
// their defaults). Call before the cache sees traffic; it is not
// synchronized with in-flight operations.
//
//zac:keep test seam: chaos tests shorten the disk breaker's retries and backoff
func (d *DiskCache) SetRetryPolicy(p RetryPolicy) { d.policy = p.withDefaults() }

// Dir returns the cache's root directory.
func (d *DiskCache) Dir() string { return d.dir }

// path maps a key to its entry file: two hex characters of fan-out, then the
// full SHA-256 of the key.
func (d *DiskCache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(d.dir, name[:2], name+diskSuffix)
}

// allow reports whether the breaker admits a disk operation right now,
// transitioning open → half-open when the reprobe interval has elapsed.
func (d *DiskCache) allow() bool {
	d.bmu.Lock()
	defer d.bmu.Unlock()
	switch d.state {
	case BreakerOpen:
		if time.Now().Before(d.openUntil) {
			d.breakerSkips.Add(1)
			return false
		}
		d.state = BreakerHalfOpen // this caller is the reprobe trial
		return true
	case BreakerHalfOpen:
		d.breakerSkips.Add(1)
		return false // one trial at a time
	default:
		return true
	}
}

// opSuccess records a healthy disk operation, closing the breaker.
func (d *DiskCache) opSuccess() {
	d.bmu.Lock()
	d.consecFail = 0
	d.state = BreakerClosed
	d.bmu.Unlock()
}

// opFailure records an operation that exhausted its retries; enough in a
// row — or one failed reprobe — re-opens the breaker.
func (d *DiskCache) opFailure() {
	d.ioFailures.Add(1)
	d.bmu.Lock()
	d.consecFail++
	if d.state == BreakerHalfOpen || d.consecFail >= d.policy.FailThreshold {
		d.state = BreakerOpen
		d.openUntil = time.Now().Add(d.policy.Reprobe)
		d.breakerOpens.Add(1)
	}
	d.bmu.Unlock()
}

// retry runs op up to Attempts times with jittered exponential backoff and
// feeds the outcome to the breaker.
func (d *DiskCache) retry(op func() error) error {
	var err error
	for i := 0; i < d.policy.Attempts; i++ {
		if i > 0 {
			d.retries.Add(1)
			delay := d.policy.BaseDelay << (i - 1)
			// ±50% jitter decorrelates retry storms across callers.
			d.policy.Sleep(delay/2 + time.Duration(rand.Int64N(int64(delay))))
		}
		if err = op(); err == nil {
			d.opSuccess()
			return nil
		}
	}
	d.opFailure()
	return err
}

// Get returns the payload stored for key. A missing, truncated, corrupt, or
// colliding entry reads as a miss; damaged files are deleted so the next Put
// can rewrite them. A successful read refreshes the entry's mtime, which is
// the recency signal eviction sorts by. Transient read errors are retried;
// with the breaker open, Get misses immediately (the tier is degraded to
// memory-only).
func (d *DiskCache) Get(key string) ([]byte, bool) {
	if !d.allow() {
		d.misses.Add(1)
		return nil, false
	}
	path := d.path(key)
	var raw []byte
	err := d.retry(func() error {
		b, err := d.fsys.ReadFile(path)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				raw = nil // a miss is a healthy read
				return nil
			}
			return err
		}
		raw = b
		return nil
	})
	if err != nil || raw == nil {
		d.misses.Add(1)
		return nil, false
	}
	payload, ok := decodeEntry(raw, key)
	if !ok {
		d.corrupt.Add(1)
		d.misses.Add(1)
		d.discard(path)
		return nil, false
	}
	now := time.Now()
	d.fsys.Chtimes(path, now, now) // best effort: feed the LRU eviction order
	d.hits.Add(1)
	return payload, true
}

// Put stores payload under key, replacing any previous entry, and evicts
// least recently read entries if the size bound is exceeded. The staged
// write (temp file + rename) is retried as a unit on transient errors; with
// the breaker open, Put refuses immediately with ErrDiskUnavailable.
func (d *DiskCache) Put(key string, payload []byte) error {
	if !d.allow() {
		return ErrDiskUnavailable
	}
	path := d.path(key)
	entry := encodeEntry(key, payload)

	var prev int64
	replacing := false
	if info, err := d.fsys.Stat(path); err == nil {
		prev, replacing = info.Size(), true
	}
	err := d.retry(func() error {
		if err := d.fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		tmp, err := d.fsys.CreateTemp(filepath.Dir(path), "put-*.tmp")
		if err != nil {
			return err
		}
		if _, err := tmp.Write(entry); err != nil {
			tmp.Close()
			d.fsys.Remove(tmp.Name())
			return err
		}
		if err := tmp.Close(); err != nil {
			d.fsys.Remove(tmp.Name())
			return err
		}
		if err := d.fsys.Rename(tmp.Name(), path); err != nil {
			d.fsys.Remove(tmp.Name())
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}

	d.mu.Lock()
	d.size += int64(len(entry)) - prev
	if !replacing {
		d.entries++
	}
	over := d.maxBytes > 0 && d.size > d.maxBytes
	d.mu.Unlock()
	if over {
		d.evict(path)
	}
	return nil
}

// Remove deletes the entry for key if present.
func (d *DiskCache) Remove(key string) { d.discard(d.path(key)) }

// discard deletes an entry file by path and fixes the accounting.
func (d *DiskCache) discard(path string) {
	info, err := d.fsys.Stat(path)
	if err != nil {
		return
	}
	if d.fsys.Remove(path) != nil {
		return
	}
	d.mu.Lock()
	d.size -= info.Size()
	d.entries--
	d.mu.Unlock()
}

// evict removes least recently read entries (oldest mtime first) until the
// cache fits 90% of the byte bound — the hysteresis keeps a steady-state
// bounded cache from re-walking the directory on every single Put. keep is
// never evicted — it is the entry whose Put triggered the scan. The walk's
// totals replace the in-memory accounting, so entries added or removed by
// other processes sharing the directory are reconciled here.
func (d *DiskCache) evict(keep string) {
	type entry struct {
		path  string
		mtime time.Time
		size  int64
	}
	var all []entry
	var keepSize, total int64
	d.fsys.WalkDir(d.dir, func(path string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() || !strings.HasSuffix(path, diskSuffix) {
			return nil
		}
		info, err := de.Info()
		if err != nil {
			return nil
		}
		total += info.Size()
		if path == keep {
			keepSize = info.Size()
			return nil
		}
		all = append(all, entry{path, info.ModTime(), info.Size()})
		return nil
	})
	sort.Slice(all, func(i, j int) bool { return all[i].mtime.Before(all[j].mtime) })

	d.mu.Lock()
	defer d.mu.Unlock()
	d.size = total
	d.entries = len(all)
	if keep != "" {
		d.entries++
	}
	target := d.maxBytes - d.maxBytes/10
	if target < keepSize {
		target = keepSize
	}
	for _, e := range all {
		if d.size <= target {
			break
		}
		if d.fsys.Remove(e.path) == nil {
			d.size -= e.size
			d.entries--
			d.evicted.Add(1)
		}
	}
}

// DiskStats reports the disk tier's counters.
type DiskStats struct {
	Entries int
	Bytes   int64
	Hits    uint64
	Misses  uint64
	Corrupt uint64 // entries dropped by checksum/header verification
	Evicted uint64 // entries removed by the size bound

	Retries      uint64 // individual operation retries (backoff sleeps)
	IOFailures   uint64 // operations that exhausted their retries
	BreakerOpens uint64 // closed/half-open → open transitions
	BreakerSkips uint64 // operations short-circuited while the breaker was open
	BreakerState string // BreakerClosed, BreakerOpen, or BreakerHalfOpen
}

// Stats returns the current counters.
func (d *DiskCache) Stats() DiskStats {
	d.mu.Lock()
	entries, size := d.entries, d.size
	d.mu.Unlock()
	d.bmu.Lock()
	state := d.state
	d.bmu.Unlock()
	return DiskStats{
		Entries: entries, Bytes: size,
		Hits: d.hits.Load(), Misses: d.misses.Load(),
		Corrupt: d.corrupt.Load(), Evicted: d.evicted.Load(),
		Retries: d.retries.Load(), IOFailures: d.ioFailures.Load(),
		BreakerOpens: d.breakerOpens.Load(), BreakerSkips: d.breakerSkips.Load(),
		BreakerState: state,
	}
}

// encodeEntry frames a payload with a verifiable header:
//
//	zacdisk1 <sha256(payload) hex> <len(payload)> <url-escaped key>\n<payload>
//
// The escaped key makes hash collisions (and accidental cross-key reads
// after a format change) detectable, and doubles as debugging metadata.
func encodeEntry(key string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %s %d %s\n", diskMagic, hex.EncodeToString(sum[:]), len(payload), url.QueryEscape(key))
	return append([]byte(header), payload...)
}

// decodeEntry validates a raw entry file against the expected key and
// returns the payload, or false for any malformed, truncated, or mismatched
// content.
func decodeEntry(raw []byte, key string) ([]byte, bool) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, false
	}
	fields := strings.Split(string(raw[:nl]), " ")
	if len(fields) != 4 || fields[0] != diskMagic {
		return nil, false
	}
	storedKey, err := url.QueryUnescape(fields[3])
	if err != nil || storedKey != key {
		return nil, false
	}
	n, err := strconv.Atoi(fields[2])
	if err != nil {
		return nil, false
	}
	payload := raw[nl+1:]
	if len(payload) != n {
		return nil, false
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != fields[1] {
		return nil, false
	}
	return payload, true
}
