// Package recordlog is the one persistence substrate behind every
// JSON-lines store: the results cache, the pool-run memo, the run
// journal and the serve checkpoint. A log holds one newline-terminated
// JSON record per line; each Append is a single unbuffered write, so a
// crash at any byte leaves complete records plus at most a torn tail.
// See DESIGN.md, "Persistence".
package recordlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Log is an append-only record log, safe for concurrent use.
type Log struct {
	path string

	mu     sync.Mutex
	w      io.Writer // nil until the first Append opens path
	f      *os.File  // the file behind w when the log owns it
	err    error     // first write error, returned by every later call
	needNL bool      // the file does not end in '\n'
}

// New wraps an open writer (tests, in-memory use). Close leaves w open.
func New(w io.Writer) *Log { return &Log{w: w} }

// Create creates (truncating) the log at path.
func Create(path string) (*Log, error) {
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		return nil, err
	}
	return &Log{path: path}, nil
}

// Open decodes every record of the log at path into a fresh T and hands
// it to fn in file order, then truncates a torn tail so that appends
// continue after the last record. A missing file is an empty log; the
// first Append creates it.
func Open[T any](path string, fn func(T) error) (*Log, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return &Log{path: path}, nil
	}
	if err != nil {
		return nil, err
	}
	good, size, needNL, err := scan(f, path, fn)
	f.Close()
	if err == nil && good < size {
		err = os.Truncate(path, good)
	}
	if err != nil {
		return nil, err
	}
	return &Log{path: path, needNL: needNL}, nil
}

// Read decodes every record of r like Open, ignoring a torn tail. name
// labels decode errors.
func Read[T any](r io.Reader, name string, fn func(T) error) error {
	_, _, _, err := scan(r, name, fn)
	return err
}

// scan decodes r line by line. Blank lines are skipped but still
// numbered. A final run of bytes without '\n' is kept when it is blank
// or decodes (a record missing its newline), and is a torn tail,
// skipped, when it does not. scan returns the byte length of what it
// kept, the total length, and whether the kept bytes end without a
// newline.
func scan[T any](r io.Reader, name string, fn func(T) error) (good, size int64, needNL bool, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	for line := 1; ; line++ {
		data, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return good, size, false, err
		}
		tail := err == io.EOF
		size += int64(len(data))
		if text := bytes.TrimSpace(data); len(text) > 0 {
			var rec T
			err = json.Unmarshal(text, &rec)
			if err != nil && tail {
				return good, size, false, nil
			}
			if err == nil {
				err = fn(rec)
			}
			if err != nil {
				return good, size, false, fmt.Errorf("%s line %d: %w", name, line, err)
			}
		}
		good = size
		if tail {
			return good, size, len(data) > 0, nil
		}
	}
}

// Append writes v as one JSON line in a single write. The first write
// error sticks: it is returned by this and every later call until a
// Rewrite succeeds. An encoding error writes nothing and does not stick.
func (l *Log) Append(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.w == nil {
		if l.f, l.err = os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644); l.err != nil {
			return l.err
		}
		l.w = l.f
	}
	if l.needNL {
		data, l.needNL = append([]byte{'\n'}, data...), false
	}
	_, l.err = l.w.Write(data)
	return l.err
}

// Close releases the log's file handle (a later Append reopens it) and
// returns the sticky write error, if any.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.release()
	return l.err
}

// release closes the owned file. Callers hold mu.
func (l *Log) release() {
	if l.f == nil {
		return
	}
	if err := l.f.Close(); err != nil && l.err == nil {
		l.err = err
	}
	l.w, l.f = nil, nil
}

// Rewrite compacts the log to exactly recs: it writes them to a temp
// file, fsyncs it, renames it over the log and fsyncs the directory. A
// crash at any point leaves either the old log or the new one. The new
// log owes nothing to the old file, so Rewrite runs even after a write
// error and, once the rename succeeds, clears it.
func (l *Log) Rewrite(recs []any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	tmp := l.path + ".tmp"
	f, err := os.Create(tmp)
	if err == nil {
		if _, err = f.Write(buf.Bytes()); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	l.release() // the handle points at the replaced file
	l.err, l.needNL = nil, false
	dir, err := os.Open(filepath.Dir(l.path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}
