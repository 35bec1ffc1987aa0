package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Chrome trace-event export: the flight recorder's on-demand dump,
// loadable by Perfetto (ui.perfetto.dev) and chrome://tracing. Every
// worker ring becomes one thread of a single "dmexplore" process;
// complete ("ph":"X") events carry the stage name, the microsecond
// start/duration, and the stage-specific arg.
//
// Export reads the raw ring entries, so it must run after the recording
// workers have quiesced — end of run, or the signal-driven finalize
// after the session has been abandoned.

// traceEvent is one Chrome trace-event JSON object.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds since epoch
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// traceFile is the exported document shape.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	Dropped         uint64       `json:"dmexploreDroppedSpans,omitempty"`
}

// ringSpans returns ring i's recorded spans oldest-first (the live
// window when the ring has wrapped).
func (r *Recorder) ringSpans(i int) []Span {
	ring := &r.rings[i]
	n := ring.n.Load()
	capacity := uint64(len(ring.spans))
	if n <= capacity {
		return append([]Span(nil), ring.spans[:n]...)
	}
	// Wrapped: the oldest live span sits at n % capacity.
	head := int(n % capacity)
	out := make([]Span, 0, capacity)
	out = append(out, ring.spans[head:]...)
	out = append(out, ring.spans[:head]...)
	return out
}

// WriteTrace writes the recorder's contents as Chrome trace-event JSON.
func (r *Recorder) WriteTrace(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("span: nil recorder")
	}
	doc := traceFile{DisplayTimeUnit: "ms", Dropped: r.Dropped()}
	for tid := range r.rings {
		name := fmt.Sprintf("worker %d", tid)
		if tid == len(r.rings)-1 {
			name = "coordinator"
		}
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   1,
			TID:   tid,
			Args:  map[string]any{"name": name},
		})
		spans := r.ringSpans(tid)
		// Sort by start so nested stages (a batch wave enclosing its
		// sims) render as stacks.
		sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
		for _, sp := range spans {
			doc.TraceEvents = append(doc.TraceEvents, traceEvent{
				Name:  sp.Stage.String(),
				Cat:   "dmexplore",
				Phase: "X",
				TS:    float64(sp.Start) / 1e3,
				Dur:   float64(sp.Dur) / 1e3,
				PID:   1,
				TID:   tid,
				Args:  map[string]any{"arg": sp.Arg},
			})
		}
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteTraceFile writes the trace-event dump to path.
func (r *Recorder) WriteTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = r.WriteTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadTrace parses a trace file written by WriteTrace back into its
// events — the offline-analysis and test entry point.
func ReadTrace(data []byte) (events []struct {
	Name  string  `json:"name"`
	Phase string  `json:"ph"`
	TS    float64 `json:"ts"`
	Dur   float64 `json:"dur"`
	TID   int     `json:"tid"`
}, dropped uint64, err error) {
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
			TID   int     `json:"tid"`
		} `json:"traceEvents"`
		Dropped uint64 `json:"dmexploreDroppedSpans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, 0, fmt.Errorf("span: trace file: %w", err)
	}
	return doc.TraceEvents, doc.Dropped, nil
}
