package recordlog

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

type rec struct {
	K string  `json:"k"`
	V float64 `json:"v,omitempty"`
}

// openAll reopens the log at path and returns its records.
func openAll(t *testing.T, path string) ([]rec, *Log) {
	t.Helper()
	var got []rec
	l, err := Open(path, func(r rec) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, l
}

// TestTruncateAtEveryOffset is the crash property: a log cut at any
// byte reopens cleanly, yields a prefix of the appended records, and
// takes further appends after the last complete one. A cut just before
// a record's newline keeps that record: it decodes, so it is not torn.
func TestTruncateAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	want := []rec{{K: "a", V: 1}, {K: "b"}, {K: "c\nd", V: -2.5}, {K: strings.Repeat("x", 300)}}
	l, err := Create(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "cut.jsonl")
	for n := 0; n <= len(data); n++ {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		got, l := openAll(t, path)
		complete := bytes.Count(data[:n], []byte("\n"))
		if n < len(data) && data[n] == '\n' {
			complete++
		}
		if len(got) != complete || (complete > 0 && !reflect.DeepEqual(got, want[:complete])) {
			t.Fatalf("cut at %d: got %v, want the first %d records", n, got, complete)
		}
		if err := l.Append(rec{K: "next"}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		again, _ := openAll(t, path)
		if len(again) != complete+1 || again[complete].K != "next" {
			t.Fatalf("cut at %d: append after reopen gave %v", n, again)
		}
	}
}

// TestCorruptMiddleLineRejected: a complete line that does not decode is
// corruption, not a torn write, and names the file and line.
func TestCorruptMiddleLineRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte("{\"k\":\"a\"}\n{\"k\":tru\n{\"k\":\"c\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path, func(rec) error { return nil })
	if err == nil || !strings.Contains(err.Error(), path+" line 2:") {
		t.Fatalf("corrupt middle line: err %v, want %s line 2", err, path)
	}
	err = Read(strings.NewReader("{\"k\":\"a\"}\n\ngarbage\n{\"k\":"), "journal", func(rec) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "journal line 3:") {
		t.Fatalf("Read: err %v, want journal line 3", err)
	}
}

func TestRewriteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.jsonl")
	_, l := openAll(t, path)
	for _, k := range []string{"a", "b", "c"} {
		if err := l.Append(rec{K: k}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rewrite([]any{rec{K: "b"}, rec{K: "d", V: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec{K: "e"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := openAll(t, path)
	if want := []rec{{K: "b"}, {K: "d", V: 4}, {K: "e"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after rewrite: %v, want %v", got, want)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) != 1 {
		t.Fatalf("rewrite left files behind: %v", names)
	}
}

// TestAppendErrorSticks: once a write fails, every later Append and
// Close returns that error instead of writing past the damage, until a
// Rewrite replaces the file.
func TestAppendErrorSticks(t *testing.T) {
	l, err := Create(filepath.Join(t.TempDir(), "log.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec{K: "0"}); err != nil {
		t.Fatal(err)
	}
	l.f.Close() // the file fails underneath the log
	first := l.Append(rec{K: "a"})
	if first == nil {
		t.Fatal("append to a failed file succeeded")
	}
	for i := 0; i < 2; i++ {
		if err := l.Append(rec{K: "b"}); err != first {
			t.Fatalf("later append returned %v, want the sticky %v", err, first)
		}
	}
	if err := l.Close(); err != first {
		t.Fatalf("close returned %v, want the sticky %v", err, first)
	}
	// A compaction replaces the damaged file wholesale and clears it.
	if err := l.Rewrite([]any{rec{K: "a"}, rec{K: "b"}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec{K: "c"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := openAll(t, l.path); !reflect.DeepEqual(got, []rec{{K: "a"}, {K: "b"}, {K: "c"}}) {
		t.Fatalf("after repair: %v", got)
	}
}

// TestEncodeErrorDoesNotStick: a value JSON cannot encode writes
// nothing and leaves the log usable.
func TestEncodeErrorDoesNotStick(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	if err := l.Append(func() {}); err == nil {
		t.Fatal("unencodable value accepted")
	}
	if err := l.Append(rec{K: "a"}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "{\"k\":\"a\"}\n" {
		t.Fatalf("log bytes %q", buf.String())
	}
}

// FuzzRecordLog: Open never panics on arbitrary bytes; when it succeeds
// the file is cut back to its complete lines (keeping an unterminated
// last line that is blank or decodes) and appends land after them.
func FuzzRecordLog(f *testing.F) {
	f.Add([]byte("{\"k\":\"a\"}\n{\"k\":\"b\""))
	f.Add([]byte("{\"k\":\"a\"}\n{\"k\":\"b\"}"))
	f.Add([]byte("\n\n{}\n"))
	f.Add([]byte("{\"k\":1}\n"))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got []json.RawMessage
		l, err := Open(path, func(r json.RawMessage) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			return // a corrupt complete line: rejected, not a crash artifact
		}
		complete := data[:bytes.LastIndexByte(data, '\n')+1]
		if tail := bytes.TrimSpace(data[len(complete):]); len(tail) == 0 || json.Valid(tail) {
			complete = data
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, complete) {
			t.Fatalf("open left %q, want the complete prefix %q", onDisk, complete)
		}
		if err := l.Append("tail"); err != nil {
			t.Fatal(err)
		}
		l.Close()
		var again []json.RawMessage
		if _, err := Open(path, func(r json.RawMessage) error {
			again = append(again, r)
			return nil
		}); err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		if len(again) != len(got)+1 || string(again[len(got)]) != `"tail"` {
			t.Fatalf("reopen gave %d records, want %d + the appended one", len(again), len(got))
		}
	})
}
