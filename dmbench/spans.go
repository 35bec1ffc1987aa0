package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dmexplore/internal/telemetry/span"
)

// benchSpans are the benchmark's own spans around its calls into each
// layer, kept in memory and written out at the end as Chrome trace JSON
// beside the program's span recorder (loadable in Perfetto).
type benchSpans struct {
	epoch time.Time
	mu    sync.Mutex
	spans []benchSpan
}

type benchSpan struct {
	name       string
	start, dur time.Duration
}

func newBenchSpans() *benchSpans { return &benchSpans{epoch: time.Now()} }

// begin opens a span; calling the returned function closes it.
func (s *benchSpans) begin(name string) func() {
	start := time.Since(s.epoch)
	return func() {
		dur := time.Since(s.epoch) - start
		s.mu.Lock()
		s.spans = append(s.spans, benchSpan{name, start, dur})
		s.mu.Unlock()
	}
}

// chromeEvent is one Chrome trace event.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// writeSpans writes the benchmark's spans (process "dmbench") and the
// program's recorder of the first traced repetition (process
// "dmexplore") to one trace file under the output directory.
func (b *bench) writeSpans(rec *span.Recorder) error {
	var events []chromeEvent
	meta := func(pid int, name string) {
		events = append(events, chromeEvent{Name: "process_name", Phase: "M", PID: pid, Args: map[string]any{"name": name}})
	}
	meta(2, "dmbench")
	b.spans.mu.Lock()
	for _, sp := range b.spans.spans {
		events = append(events, chromeEvent{
			Name: sp.name, Cat: "dmbench", Phase: "X", PID: 2,
			TS: float64(sp.start.Nanoseconds()) / 1e3, Dur: float64(sp.dur.Nanoseconds()) / 1e3,
		})
	}
	b.spans.mu.Unlock()
	if rec != nil {
		var buf bytes.Buffer
		if err := rec.WriteTrace(&buf); err != nil {
			return err
		}
		var doc struct {
			TraceEvents []chromeEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			return err
		}
		meta(1, "dmexplore")
		// Recorder timestamps count from its own epoch; shift them onto
		// the benchmark's clock.
		shift := float64(rec.Epoch().Sub(b.spans.epoch).Nanoseconds()) / 1e3
		for _, ev := range doc.TraceEvents {
			if ev.Phase == "X" {
				ev.TS += shift
			}
			events = append(events, ev)
		}
	}
	path := filepath.Join(b.o.out, fmt.Sprintf("%s-seed%d-spans.json", b.wl.name, b.o.seed))
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	b.note("span file %s (%d events, Perfetto-loadable)", path, len(events))
	b.note("not exactly repeatable at %d workers, must not back a claim: %s", benchWorkers, strings.Join(nonRepeatable, ", "))
	return nil
}
