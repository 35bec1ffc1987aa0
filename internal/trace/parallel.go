package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"dmexplore/internal/blockio"
)

// openBinary parses a binary trace's header and opens its footer index.
func openBinary(ra io.ReaderAt, size int64) (string, *blockio.Index, error) {
	header := make([]byte, min(size, int64(len(binaryMagic)+1+binary.MaxVarintLen64)))
	if _, err := ra.ReadAt(header, 0); err != nil && err != io.EOF {
		return "", nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if len(header) < len(binaryMagic)+1 || string(header[:len(binaryMagic)]) != binaryMagic {
		return "", nil, fmt.Errorf("trace: bad magic")
	}
	if err := checkVersion(header[len(binaryMagic)]); err != nil {
		return "", nil, err
	}
	nameLen, n := binary.Uvarint(header[len(binaryMagic)+1:])
	if n <= 0 {
		return "", nil, fmt.Errorf("trace: truncated name length")
	}
	if nameLen > maxNameLen {
		return "", nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	nameOff := int64(len(binaryMagic) + 1 + n)
	name := make([]byte, nameLen)
	if _, err := ra.ReadAt(name, nameOff); err != nil {
		return "", nil, fmt.Errorf("trace: reading name: %w", err)
	}
	ix, err := blockio.OpenIndex(ra, size, nameOff+int64(nameLen))
	if err != nil {
		return "", nil, fmt.Errorf("trace: %w", err)
	}
	if ix.Records() > maxBinaryEvents {
		return "", nil, fmt.Errorf("trace: implausible event count %d (max %d) — corrupt or hostile footer", ix.Records(), int64(maxBinaryEvents))
	}
	return string(name), ix, nil
}

// ReadBinaryParallel parses a binary trace along its footer index with
// up to workers goroutines: every block's records are decoded straight
// into its preallocated slice of the event slab, so the result is
// bit-identical to the streaming ReadBinary. stats may be nil.
func ReadBinaryParallel(ra io.ReaderAt, size int64, workers int, stats blockio.Stats) (*Trace, error) {
	name, ix, err := openBinary(ra, size)
	if err != nil {
		return nil, err
	}
	t := &Trace{Name: name}
	if ix.Records() > 0 {
		t.Events = make([]Event, ix.Records())
	}
	err = ix.Decode(workers, stats, func(_ int, first, records int64, payload []byte) error {
		events := t.Events[first : first+records]
		for i := range events {
			kind, id, a, b, n, err := decodeRecord(payload)
			if err != nil {
				return fmt.Errorf("record %d (event %d): %w", i, first+int64(i), err)
			}
			events[i] = makeEvent(kind, id, a, b)
			payload = payload[n:]
		}
		return checkDrained(payload, records)
	})
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return t, nil
}

// CompileBinaryParallel parses a binary trace and compiles it for replay
// in one step: records are decoded along the footer index by up to
// workers goroutines straight into the compiled trace's columnar slabs
// (no intermediate []Event), then finalized (validation, dense
// renumbering) in one sequential pass, so the result is bit-identical to
// ReadBinary + Compile. stats may be nil.
func CompileBinaryParallel(ra io.ReaderAt, size int64, workers int, stats blockio.Stats) (*Compiled, error) {
	name, ix, err := openBinary(ra, size)
	if err != nil {
		return nil, err
	}
	c, rawIDs := newCompiled(name, int(ix.Records()))
	err = ix.Decode(workers, stats, func(_ int, first, records int64, payload []byte) error {
		for i := first; i < first+records; i++ {
			kind, id, a, b, n, err := decodeRecord(payload)
			if err != nil {
				return fmt.Errorf("record %d (event %d): %w", i-first, i, err)
			}
			c.kinds[i], rawIDs[i], c.argA[i], c.argB[i] = kind, id, a, b
			payload = payload[n:]
		}
		return checkDrained(payload, records)
	})
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if err := c.finalize(rawIDs); err != nil {
		return nil, err
	}
	return c, nil
}

// checkDrained rejects payload bytes left over after a block's records.
func checkDrained(payload []byte, records int64) error {
	if len(payload) != 0 {
		return fmt.Errorf("%d payload bytes beyond its %d records", len(payload), records)
	}
	return nil
}

// openFile opens a trace file and reports whether it carries the binary
// magic (otherwise it is parsed as text).
func openFile(path string) (f *os.File, size int64, isBinary bool, err error) {
	f, err = os.Open(path)
	if err != nil {
		return nil, 0, false, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, false, err
	}
	var magic [len(binaryMagic)]byte
	n, _ := f.ReadAt(magic[:], 0)
	return f, fi.Size(), n == len(magic) && string(magic[:]) == binaryMagic, nil
}

// ReadFile reads a binary or text trace file, sniffing the magic. Binary
// files are decoded along their footer index with up to workers
// goroutines, whatever the worker count. stats may be nil.
func ReadFile(path string, workers int, stats blockio.Stats) (*Trace, error) {
	f, size, isBinary, err := openFile(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if isBinary {
		return ReadBinaryParallel(f, size, workers, stats)
	}
	return ReadText(f)
}

// ReadCompiledFile reads a trace file and compiles it for replay in one
// step. Binary files go through CompileBinaryParallel, landing directly
// in the columnar slabs; text files are parsed then compiled.
func ReadCompiledFile(path string, workers int, stats blockio.Stats) (*Compiled, error) {
	f, size, isBinary, err := openFile(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if isBinary {
		return CompileBinaryParallel(f, size, workers, stats)
	}
	t, err := ReadText(f)
	if err != nil {
		return nil, err
	}
	return Compile(t)
}
