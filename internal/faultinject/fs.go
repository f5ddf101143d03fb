package faultinject

import (
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"zac/internal/engine"
)

// Injection points of the filesystem seam, one per engine.FS operation plus
// the write/close steps of a staged temp-file commit.
const (
	PointReadFile   = "fs.readfile"
	PointMkdirAll   = "fs.mkdirall"
	PointCreateTemp = "fs.createtemp"
	PointWrite      = "fs.write"
	PointClose      = "fs.close"
	PointRename     = "fs.rename"
	PointRemove     = "fs.remove"
	PointStat       = "fs.stat"
	PointChtimes    = "fs.chtimes"
	PointWalkDir    = "fs.walkdir"
)

// faultFS decorates an engine.FS with the plan's filesystem faults.
type faultFS struct {
	base engine.FS
	plan *Plan
}

// WrapFS returns an engine.FS that consults plan at every operation,
// delegating to base when no fault fires. Wire it into a disk cache with
// engine.OpenDiskCacheFS to drive the cache's recovery paths.
//
//zac:keep fault-injection seam: chaos tests wrap the disk cache's file system with it
func WrapFS(base engine.FS, plan *Plan) engine.FS {
	return &faultFS{base: base, plan: plan}
}

// apply handles the kinds shared by every operation (latency delays, error
// returns); the caller handles its operation-specific corruption kinds by
// checking the returned rule first.
func (f *faultFS) apply(point string, r *Rule) error {
	if r == nil {
		return nil
	}
	if r.Kind == KindLatency {
		f.plan.sleeper()(r.Latency)
		return nil
	}
	return r.fail(point)
}

// fraction returns the rule's kept fraction with its default.
func (r *Rule) fraction() float64 {
	if r.Fraction <= 0 {
		return 0.5
	}
	return r.Fraction
}

func (f *faultFS) ReadFile(name string) ([]byte, error) {
	r := f.plan.Decide(PointReadFile)
	if r != nil && r.Kind == KindBitFlip {
		raw, err := f.base.ReadFile(name)
		if err != nil || len(raw) == 0 {
			return raw, err
		}
		bit := f.plan.Rand(PointReadFile) % uint64(len(raw)*8)
		out := append([]byte(nil), raw...)
		out[bit/8] ^= 1 << (bit % 8)
		return out, nil
	}
	if err := f.apply(PointReadFile, r); err != nil {
		return nil, err
	}
	return f.base.ReadFile(name)
}

func (f *faultFS) MkdirAll(path string, perm os.FileMode) error {
	if err := f.apply(PointMkdirAll, f.plan.Decide(PointMkdirAll)); err != nil {
		return err
	}
	return f.base.MkdirAll(path, perm)
}

func (f *faultFS) CreateTemp(dir, pattern string) (engine.FileWriter, error) {
	if err := f.apply(PointCreateTemp, f.plan.Decide(PointCreateTemp)); err != nil {
		return nil, err
	}
	w, err := f.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{FileWriter: w, fs: f}, nil
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	r := f.plan.Decide(PointRename)
	if r != nil && r.Kind == KindTornRename {
		// Commit only a prefix of the staged bytes and report success — the
		// torn entry must be caught by the reader's checksum, never served.
		raw, err := f.base.ReadFile(oldpath)
		if err != nil {
			return err
		}
		n := int(float64(len(raw)) * r.fraction())
		w, err := f.base.CreateTemp(filepath.Dir(newpath), "torn-*.tmp")
		if err != nil {
			return err
		}
		if _, err := w.Write(raw[:n]); err != nil {
			w.Close()
			f.base.Remove(w.Name())
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		if err := f.base.Rename(w.Name(), newpath); err != nil {
			return err
		}
		f.base.Remove(oldpath)
		return nil
	}
	if err := f.apply(PointRename, r); err != nil {
		return err
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *faultFS) Remove(name string) error {
	if err := f.apply(PointRemove, f.plan.Decide(PointRemove)); err != nil {
		return err
	}
	return f.base.Remove(name)
}

func (f *faultFS) Stat(name string) (os.FileInfo, error) {
	if err := f.apply(PointStat, f.plan.Decide(PointStat)); err != nil {
		return nil, err
	}
	return f.base.Stat(name)
}

func (f *faultFS) Chtimes(name string, atime, mtime time.Time) error {
	if err := f.apply(PointChtimes, f.plan.Decide(PointChtimes)); err != nil {
		return err
	}
	return f.base.Chtimes(name, atime, mtime)
}

func (f *faultFS) WalkDir(root string, fn fs.WalkDirFunc) error {
	if err := f.apply(PointWalkDir, f.plan.Decide(PointWalkDir)); err != nil {
		return err
	}
	return f.base.WalkDir(root, fn)
}

// faultFile injects faults into the write/close steps of a staged file.
type faultFile struct {
	engine.FileWriter
	fs *faultFS
}

func (w *faultFile) Write(b []byte) (int, error) {
	r := w.fs.plan.Decide(PointWrite)
	if r != nil && r.Kind == KindPartialWrite {
		// Persist only a prefix but report the full length: a silent short
		// write, surfacing later as a torn committed entry.
		n := int(float64(len(b)) * r.fraction())
		if _, err := w.FileWriter.Write(b[:n]); err != nil {
			return 0, err
		}
		return len(b), nil
	}
	if err := w.fs.apply(PointWrite, r); err != nil {
		return 0, err
	}
	return w.FileWriter.Write(b)
}

func (w *faultFile) Close() error {
	r := w.fs.plan.Decide(PointClose)
	if err := w.fs.apply(PointClose, r); err != nil {
		w.FileWriter.Close() // release the descriptor either way
		return err
	}
	return w.FileWriter.Close()
}
