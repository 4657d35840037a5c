package wal

// The log's one seam to the file system. Every disk call the package makes
// goes through a fileSystem, and osFS is the only code that calls package os.
// Open and OpenChain pass osFS; a test hands openLog one that fails a chosen
// call, so each I/O failure the log can meet has a tested outcome
// (DESIGN.md §8).

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// fileSystem is what the log needs from the disk.
type fileSystem interface {
	MkdirAll(dir string) error
	ReadDir(dir string) ([]fs.DirEntry, error)
	// OpenRead opens a regular file for positioned reads.
	OpenRead(path string) (readFile, error)
	ReadFile(path string) ([]byte, error)
	// Create makes a new file for writing; it fails if path exists.
	Create(path string) (file, error)
	// Append opens an existing file for writing at its end.
	Append(path string) (file, error)
	Truncate(path string, size int64) error
	Rename(from, to string) error
	Remove(path string) error
	// SyncDir fsyncs a directory, making creations, renames and removals in
	// it durable.
	SyncDir(dir string) error
}

// file is an open file the log writes.
type file interface {
	io.Writer
	Sync() error
	Close() error
}

// readFile is an open file the chain reads [reads-below-valid].
type readFile interface {
	io.ReaderAt
	Close() error
	// Size is the file's length when it was opened.
	Size() int64
}

// osFS is the operating system's file system.
type osFS struct{}

func (osFS) MkdirAll(dir string) error                 { return os.MkdirAll(dir, 0o755) }
func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) ReadFile(path string) ([]byte, error)      { return os.ReadFile(path) }
func (osFS) Truncate(path string, size int64) error    { return os.Truncate(path, size) }
func (osFS) Rename(from, to string) error              { return os.Rename(from, to) }
func (osFS) Remove(path string) error                  { return os.Remove(path) }

func (osFS) Create(path string) (file, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
}

func (osFS) Append(path string) (file, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) OpenRead(path string) (readFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err == nil && !st.Mode().IsRegular() {
		err = fmt.Errorf("wal: %s: not a regular file", path)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &osReadFile{File: f, size: st.Size()}, nil
}

// osReadFile is an os.File opened for reading, with its size at open.
type osReadFile struct {
	*os.File
	size int64
}

func (f *osReadFile) Size() int64 { return f.size }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// commitFile writes final through tmp: create tmp, write its body, close it
// and rename it over final. durable adds the fsyncs that make the result
// survive a machine crash — of tmp before the rename, and of the directory
// after it. tmp is removed if the rename or anything before it fails.
func commitFile(fsys fileSystem, tmp, final string, durable bool, write func(io.Writer) error) error {
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil && durable {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, final)
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	if durable {
		return fsys.SyncDir(filepath.Dir(final))
	}
	return nil
}
