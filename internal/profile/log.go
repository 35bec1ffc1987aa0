package profile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"dmexplore/internal/blockio"
	"dmexplore/internal/memhier"
)

// Raw profile-log format. The paper's profiling tools dump every memory
// access of a run (logs "can reach Gigabytes for one single
// configuration") and the result parser processes them in under 20
// seconds. dmexplore reproduces the pipeline: the emitter below streams
// one record per charged access; ParseLog aggregates a log back into
// per-layer counters at hundreds of MB/s (benchmark E6), and
// ParseLogParallel splits a block-framed log across every core.
//
// Record layout (little-endian varints):
//
//	flags byte: bit0 = write, bits 1..7 = layer id
//	uvarint    address
//	uvarint    word count
//
// A log starts with "DMPL" and a version byte (2), then frames the
// records into CRC32C blocks with a seekable footer index
// (internal/blockio), so corruption is detected per block and a
// multi-gigabyte log can be ingested in parallel. The headerless version
// 1 stream is retired: input without the header is rejected.
const logMaxLayers = 127

const (
	logMagic     = "DMPL"
	logVersionV2 = 2
)

// logWriter implements simheap.AccessTracer, streaming block-framed
// records to w. Write errors are sticky and surfaced by Err, so the
// profiler can abort a doomed multi-gigabyte emit early instead of
// discovering the dead file at Flush.
type logWriter struct {
	blk     *blockio.Writer
	scratch [1 + 2*binary.MaxVarintLen64]byte
}

func newLogWriter(w io.Writer) *logWriter {
	blk := blockio.NewWriter(w, 0)
	blk.WriteHeader([]byte{logMagic[0], logMagic[1], logMagic[2], logMagic[3], logVersionV2})
	return &logWriter{blk: blk}
}

// TraceAccess implements simheap.AccessTracer.
func (l *logWriter) TraceAccess(layer memhier.LayerID, addr uint64, words uint64, write bool) {
	flags := byte(layer) << 1
	if write {
		flags |= 1
	}
	l.scratch[0] = flags
	n := 1 + binary.PutUvarint(l.scratch[1:], addr)
	n += binary.PutUvarint(l.scratch[n:], words)
	l.blk.Record(l.scratch[:n])
}

// Err returns the first deferred write error without finalizing the log.
// The replay loop polls it so a full disk stops the simulation within a
// bounded number of events.
func (l *logWriter) Err() error { return l.blk.Err() }

// Flush finalizes the log (the last block, end marker and footer index)
// and returns any deferred write error.
func (l *logWriter) Flush() error { return l.blk.Close() }

// LogSummary aggregates a raw profile log.
type LogSummary struct {
	Records uint64
	// Reads/Writes are word counts per layer id.
	Reads  [logMaxLayers + 1]uint64
	Writes [logMaxLayers + 1]uint64
}

// TotalWords returns the total words accessed.
func (s *LogSummary) TotalWords() uint64 {
	var t uint64
	for i := range s.Reads {
		t += s.Reads[i] + s.Writes[i]
	}
	return t
}

// merge adds o's counters into s.
func (s *LogSummary) merge(o *LogSummary) {
	s.Records += o.Records
	for i := range s.Reads {
		s.Reads[i] += o.Reads[i]
		s.Writes[i] += o.Writes[i]
	}
}

// parseLogBlock aggregates one block's payload of records into s.
func parseLogBlock(buf []byte, records int64, s *LogSummary) error {
	before := s.Records
	for len(buf) > 0 {
		flags := buf[0]
		_, n := binary.Uvarint(buf[1:]) // address (unused by the summary)
		if n <= 0 {
			return fmt.Errorf("profile: record %d: bad address", s.Records)
		}
		words, k := binary.Uvarint(buf[1+n:])
		if k <= 0 {
			return fmt.Errorf("profile: record %d: bad word count", s.Records)
		}
		buf = buf[1+n+k:]
		layer := flags >> 1
		if flags&1 == 1 {
			s.Writes[layer] += words
		} else {
			s.Reads[layer] += words
		}
		s.Records++
	}
	if s.Records-before != uint64(records) {
		return fmt.Errorf("profile: block holds %d records, header says %d", s.Records-before, records)
	}
	return nil
}

// checkLogHeader validates the "DMPL" magic and version byte.
func checkLogHeader(head []byte) error {
	if len(head) < len(logMagic)+1 || string(head[:len(logMagic)]) != logMagic {
		return fmt.Errorf("profile: not a raw profile log (missing %q header)", logMagic)
	}
	if head[len(logMagic)] != logVersionV2 {
		return fmt.Errorf("profile: unsupported log version %d", head[len(logMagic)])
	}
	return nil
}

// ParseLog streams a raw profile log front to back and aggregates
// per-layer counters, verifying every block's CRC. It needs no footer
// index, so it also reads non-seekable input; it is the reference the
// parallel parser is tested against, and avoids any per-record
// allocation.
func ParseLog(r io.Reader) (*LogSummary, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	head, _ := br.Peek(len(logMagic) + 1)
	if err := checkLogHeader(head); err != nil {
		return nil, err
	}
	br.Discard(len(head))
	s := &LogSummary{}
	blocks := blockio.NewReader(br, nil)
	for {
		records, payload, err := blocks.Next()
		if err == io.EOF {
			return s, nil
		}
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if err := parseLogBlock(payload, int64(records), s); err != nil {
			return nil, err
		}
	}
}

// ParseLogParallel aggregates a raw profile log along its footer index
// with up to workers goroutines, whatever the worker count. Each worker
// sums its blocks into a private partial LogSummary and the partials add
// up at the end, so the totals are identical to ParseLog on the same
// bytes. stats may be nil.
func ParseLogParallel(ra io.ReaderAt, size int64, workers int, stats blockio.Stats) (*LogSummary, error) {
	head := make([]byte, len(logMagic)+1)
	n, _ := ra.ReadAt(head, 0)
	if err := checkLogHeader(head[:n]); err != nil {
		return nil, err
	}
	ix, err := blockio.OpenIndex(ra, size, int64(len(head)))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	partials := make([]LogSummary, ix.Workers(workers))
	err = ix.Decode(workers, stats, func(w int, _, records int64, payload []byte) error {
		return parseLogBlock(payload, records, &partials[w])
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	s := &LogSummary{}
	for i := range partials {
		s.merge(&partials[i])
	}
	return s, nil
}

// WriteSyntheticLog emits a deterministic pseudo-random raw profile log
// of the given record count — the workload for ingestion benchmarks and
// fuzz corpora, cheap enough to synthesize gigabytes in seconds.
func WriteSyntheticLog(w io.Writer, records int, seed uint64) error {
	lw := newLogWriter(w)
	state := seed | 1
	for i := 0; i < records; i++ {
		// xorshift64: cheap, deterministic, spreads layers and sizes.
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		layer := memhier.LayerID(state % 4)
		addr := (state >> 8) % (1 << 28)
		words := state%64 + 1
		lw.TraceAccess(layer, addr, words, state&(1<<7) != 0)
		if err := lw.Err(); err != nil {
			return err
		}
	}
	return lw.Flush()
}

// SameSummary reports whether two log summaries are identical — the
// serial/parallel equivalence check used by tests and the ingestion
// benchmark.
func SameSummary(a, b *LogSummary) bool {
	return a.Records == b.Records && a.Reads == b.Reads && a.Writes == b.Writes
}
