package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"dmexplore/internal/blockio"
)

// Text format: a line-oriented codec easy to inspect and to feed to the
// CLI tools. One event per line:
//
//	# dmtrace <name>
//	a <id> <size>
//	f <id>
//	x <id> <reads> <writes>
//	t <cycles>
//
// Binary format: "DMTR" magic, version byte (2), name, then varint-packed
// event records grouped into self-delimiting CRC32C blocks with a
// seekable footer index (internal/blockio), so a reader can verify
// integrity per block and split a multi-gigabyte file into independent
// chunks for parallel decoding (ReadBinaryParallel). Roughly 4-8x denser
// than text. The unframed version 1 encoding is retired: its files are
// rejected with an error naming the version.

// WriteText writes the trace in the text format.
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# dmtrace %s\n", t.Name); err != nil {
		return err
	}
	for i, e := range t.Events {
		var err error
		switch e.Kind {
		case KindAlloc:
			_, err = fmt.Fprintf(bw, "a %d %d\n", e.ID, e.Size)
		case KindFree:
			_, err = fmt.Fprintf(bw, "f %d\n", e.ID)
		case KindAccess:
			_, err = fmt.Fprintf(bw, "x %d %d %d\n", e.ID, e.Reads, e.Writes)
		case KindTick:
			_, err = fmt.Fprintf(bw, "t %d\n", e.Cycles)
		default:
			return fmt.Errorf("trace: event %d has unknown kind %d", i, e.Kind)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text format.
func ReadText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	t := &Trace{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if name, ok := strings.CutPrefix(line, "# dmtrace "); ok && t.Name == "" {
				t.Name = strings.TrimSpace(name)
			}
			continue
		}
		var e Event
		var n int
		var err error
		switch line[0] {
		case 'a':
			e.Kind = KindAlloc
			n, err = fmt.Sscanf(line, "a %d %d", &e.ID, &e.Size)
			if err != nil || n != 2 {
				return nil, fmt.Errorf("trace: line %d: bad alloc %q", lineNo, line)
			}
		case 'f':
			e.Kind = KindFree
			n, err = fmt.Sscanf(line, "f %d", &e.ID)
			if err != nil || n != 1 {
				return nil, fmt.Errorf("trace: line %d: bad free %q", lineNo, line)
			}
		case 'x':
			e.Kind = KindAccess
			n, err = fmt.Sscanf(line, "x %d %d %d", &e.ID, &e.Reads, &e.Writes)
			if err != nil || n != 3 {
				return nil, fmt.Errorf("trace: line %d: bad access %q", lineNo, line)
			}
		case 't':
			e.Kind = KindTick
			n, err = fmt.Sscanf(line, "t %d", &e.Cycles)
			if err != nil || n != 1 {
				return nil, fmt.Errorf("trace: line %d: bad tick %q", lineNo, line)
			}
		default:
			return nil, fmt.Errorf("trace: line %d: unknown record %q", lineNo, line)
		}
		t.Events = append(t.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

const (
	binaryMagic   = "DMTR"
	binaryVersion = 2

	// maxNameLen bounds the embedded trace name.
	maxNameLen = 1 << 16

	// maxBinaryEvents bounds the event count a binary trace may claim.
	// Every event costs at least two bytes on disk, so this cap already
	// admits multi-terabyte files; a larger claim is a corrupt or hostile
	// file and is rejected outright rather than silently tolerated.
	maxBinaryEvents = 1 << 33
)

// checkVersion rejects every binary version but the block-framed one.
func checkVersion(version byte) error {
	if version == 1 {
		return fmt.Errorf("trace: binary version 1 (the unframed stream) is no longer supported; only version %d is read", binaryVersion)
	}
	if version != binaryVersion {
		return fmt.Errorf("trace: unsupported version %d", version)
	}
	return nil
}

// appendEvent appends event i's binary record (kind byte plus varint
// fields) to buf.
func appendEvent(buf []byte, e *Event, i int) ([]byte, error) {
	buf = append(buf, byte(e.Kind))
	switch e.Kind {
	case KindAlloc:
		buf = binary.AppendUvarint(buf, e.ID)
		buf = binary.AppendUvarint(buf, uint64(e.Size))
	case KindFree:
		buf = binary.AppendUvarint(buf, e.ID)
	case KindAccess:
		buf = binary.AppendUvarint(buf, e.ID)
		buf = binary.AppendUvarint(buf, e.Reads)
		buf = binary.AppendUvarint(buf, e.Writes)
	case KindTick:
		buf = binary.AppendUvarint(buf, e.Cycles)
	default:
		return nil, fmt.Errorf("trace: event %d has unknown kind %d", i, e.Kind)
	}
	return buf, nil
}

// decodeRecord decodes one binary record from the front of buf into its
// kind, raw ID and two argument words (Alloc: size; Access: reads and
// writes; Tick: cycles in a; unused fields are zero) and returns the
// bytes consumed. Every reader, streaming or parallel, decodes with it.
func decodeRecord(buf []byte) (kind EventKind, id, a, b uint64, n int, err error) {
	if len(buf) == 0 {
		return 0, 0, 0, 0, 0, io.ErrUnexpectedEOF
	}
	kind = EventKind(buf[0])
	if kind < KindAlloc || kind > KindTick {
		return 0, 0, 0, 0, 0, fmt.Errorf("unknown kind %d", kind)
	}
	n = 1
	var k int
	if kind == KindTick {
		a, k = binary.Uvarint(buf[n:])
		if k <= 0 {
			return 0, 0, 0, 0, 0, io.ErrUnexpectedEOF
		}
		return kind, 0, a, 0, n + k, nil
	}
	if id, k = binary.Uvarint(buf[n:]); k <= 0 {
		return 0, 0, 0, 0, 0, io.ErrUnexpectedEOF
	}
	n += k
	if kind == KindFree {
		return kind, id, 0, 0, n, nil
	}
	if a, k = binary.Uvarint(buf[n:]); k <= 0 {
		return 0, 0, 0, 0, 0, io.ErrUnexpectedEOF
	}
	n += k
	if kind == KindAlloc {
		return kind, id, a, 0, n, nil
	}
	if b, k = binary.Uvarint(buf[n:]); k <= 0 {
		return 0, 0, 0, 0, 0, io.ErrUnexpectedEOF
	}
	return kind, id, a, b, n + k, nil
}

// makeEvent assembles the Event decodeRecord's fields describe.
func makeEvent(kind EventKind, id, a, b uint64) Event {
	switch kind {
	case KindAlloc:
		return Event{Kind: kind, ID: id, Size: int64(a)}
	case KindAccess:
		return Event{Kind: kind, ID: id, Reads: a, Writes: b}
	case KindTick:
		return Event{Kind: kind, Cycles: a}
	}
	return Event{Kind: kind, ID: id}
}

// WriteBinaryV2 writes the trace in the block-framed binary format:
// records grouped into CRC32C blocks with a seekable footer index (see
// internal/blockio), parseable sequentially or block-parallel.
func WriteBinaryV2(w io.Writer, t *Trace) error {
	return writeBinaryV2(w, t, 0)
}

// writeBinaryV2 is WriteBinaryV2 with a tunable block target, so tests
// can force many small blocks.
func writeBinaryV2(w io.Writer, t *Trace, target int) error {
	bw := blockio.NewWriter(w, target)
	if len(t.Name) > maxNameLen {
		return fmt.Errorf("trace: name of %d bytes exceeds the %d-byte cap", len(t.Name), maxNameLen)
	}
	header := make([]byte, 0, len(binaryMagic)+1+binary.MaxVarintLen64+len(t.Name))
	header = append(header, binaryMagic...)
	header = append(header, binaryVersion)
	header = binary.AppendUvarint(header, uint64(len(t.Name)))
	header = append(header, t.Name...)
	bw.WriteHeader(header)
	scratch := make([]byte, 0, 64)
	for i := range t.Events {
		var err error
		scratch, err = appendEvent(scratch[:0], &t.Events[i], i)
		if err != nil {
			return err
		}
		bw.Record(scratch)
		if err := bw.Err(); err != nil {
			return err
		}
	}
	return bw.Close()
}

// countingReader counts the bytes its wrappee delivered, so errors deep
// in a gigabyte stream can name the exact byte offset.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ReadBinary streams a binary trace front to back. It needs no footer
// index, so it also reads non-seekable input; it is the reference the
// parallel readers are tested against.
func ReadBinary(r io.Reader) (*Trace, error) {
	cr := &countingReader{r: r}
	br := bufio.NewReaderSize(cr, 1<<20)
	// offset is the stream position of the next unconsumed byte, for
	// error messages that point into the file.
	offset := func() int64 { return cr.n - int64(br.Buffered()) }
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	version, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if err := checkVersion(version); err != nil {
		return nil, err
	}
	name, err := readBinaryName(br)
	if err != nil {
		return nil, err
	}
	t := &Trace{Name: name}
	blocks := blockio.NewReader(br, nil)
	for block := 0; ; block++ {
		records, payload, err := blocks.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: byte offset %d: %w", offset(), err)
		}
		if uint64(len(t.Events))+uint64(records) > maxBinaryEvents {
			return nil, fmt.Errorf("trace: more than %d events — corrupt or hostile file", uint64(maxBinaryEvents))
		}
		for k := 0; k < records; k++ {
			kind, id, a, b, n, err := decodeRecord(payload)
			if err != nil {
				return nil, fmt.Errorf("trace: block %d, record %d (event %d): %w", block, k, len(t.Events), err)
			}
			payload = payload[n:]
			t.Events = append(t.Events, makeEvent(kind, id, a, b))
		}
		if err := checkDrained(payload, int64(records)); err != nil {
			return nil, fmt.Errorf("trace: block %d: %w", block, err)
		}
	}
}

// readBinaryName reads the uvarint-prefixed trace name.
func readBinaryName(br *bufio.Reader) (string, error) {
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return "", fmt.Errorf("trace: reading name length: %w", err)
	}
	if nameLen > maxNameLen {
		return "", fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return "", fmt.Errorf("trace: reading name: %w", err)
	}
	return string(name), nil
}
