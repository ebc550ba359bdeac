package correctbench

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"correctbench/internal/autoeval"
	"correctbench/internal/dataset"
	"correctbench/internal/harness"
)

// Event is one element of a Job's typed event stream: a tagged union
// of JobStarted, CellFinished, MethodRepDone, TableReady and JobDone.
// Events are emitted in canonical cell order regardless of the worker
// count, so for a fixed spec and seed the stream is bit-reproducible.
// Exactly two fields are exempt from that contract: JobStarted.Job
// (the per-client job ID, needed on the wire for correlation) and
// CellFinished.Duration (wall clock). MarshalEvent output is
// byte-identical across runs and worker counts once those two are
// normalized; every other field — including every outcome — is a pure
// function of the spec and seed.
type Event interface {
	// Type returns the event's wire tag ("job_started",
	// "cell_finished", "method_rep_done", "table_ready", "job_done").
	Type() string
}

// JobStarted is the first event of every stream. It deliberately
// carries no worker count: the grid fields below are pure functions
// of the spec, keeping the stream byte-identical across Workers
// settings (the submitted Workers value is available from Job.Spec
// and the submit response instead).
type JobStarted struct {
	// Job is the job ID assigned by the Client — the only
	// non-reproducible field of this event.
	Job string
	// Methods, Problems and Reps describe the experiment grid;
	// TotalCells is their product.
	Methods    []string
	Problems   int
	Reps       int
	TotalCells int
}

// Type implements Event.
func (JobStarted) Type() string { return "job_started" }

// CellFinished reports one finished (method, rep, problem) cell.
// Cells arrive in canonical index order.
type CellFinished struct {
	// Index is the canonical cell number (method-major, then rep,
	// then problem).
	Index   int
	Method  string
	Rep     int // 0-based repetition
	Problem string
	Outcome TaskOutcome
	// Duration is the cell's wall-clock execution time (zero for cells
	// replayed from the result store). Like Cached it is operational
	// metadata, not a pure function of the spec.
	Duration time.Duration
	// Cached reports that the cell was replayed from the client's
	// result store instead of simulated. It is not serialized by
	// MarshalEvent: once Duration (the one wall-clock wire field) is
	// normalized, a warm rerun's wire stream is byte-identical to the
	// cold run that populated the store — per-job totals surface in
	// JobDone and Snapshot instead.
	Cached bool
}

// Type implements Event.
func (CellFinished) Type() string { return "cell_finished" }

// MethodRepDone reports that every cell of one (method, repetition)
// group has been released, in canonical group order.
type MethodRepDone struct {
	Method string
	Rep    int // 0-based
	Reps   int // total repetitions
	Tasks  int // cells per group
}

// Type implements Event.
func (MethodRepDone) Type() string { return "method_rep_done" }

// TableReady carries a rendered result table once the experiment is
// complete ("table1" and "table3" are emitted for successful jobs).
type TableReady struct {
	Name string
	Text string
}

// Type implements Event.
func (TableReady) Type() string { return "table_ready" }

// JobDone terminates every stream. Err is nil on success,
// context.Canceled after Job.Cancel (or submit-context cancellation),
// and the canonically first cell error on failure. Results is non-nil
// only on success and is not serialized — the preceding TableReady
// events carry the wire-friendly rendering.
type JobDone struct {
	Results *Experiment
	Err     error
	// StoreHits and StoreMisses count the job's cells replayed from
	// the client's result store versus simulated (both zero without a
	// store). Operational metadata like CellFinished.Cached: not
	// serialized, so warm and cold wire streams stay byte-identical.
	StoreHits   int
	StoreMisses int
	// Store is the run's full result-store accounting including the
	// fault-tolerance counters (write-back retries and drops, breaker
	// trips, degraded cache-bypass mode). Also not serialized: a run
	// against a misbehaving store streams the same bytes as a clean
	// one — that is the robustness contract, and these counters are
	// how operators see what it cost.
	Store StoreUsage
}

// Type implements Event.
func (JobDone) Type() string { return "job_done" }

// ---- NDJSON wire format ----
//
// Every event marshals to a single JSON object whose first field is
// "type"; one object per line is the correctbenchd stream format.
// Field order is fixed by the wire structs, so equal events marshal
// to equal bytes — service responses are byte-stable for caching.

type wireJobStarted struct {
	Type       string   `json:"type"`
	Job        string   `json:"job"`
	Methods    []string `json:"methods"`
	Problems   int      `json:"problems"`
	Reps       int      `json:"reps"`
	TotalCells int      `json:"total_cells"`
}

type wireOutcome struct {
	Grade               string `json:"grade"`
	Kind                string `json:"kind"`
	ValidatorIntervened bool   `json:"validator_intervened,omitempty"`
	CorrectorShaped     bool   `json:"corrector_shaped,omitempty"`
	FinalValidated      bool   `json:"final_validated,omitempty"`
	Corrections         int    `json:"corrections,omitempty"`
	Reboots             int    `json:"reboots,omitempty"`
	TokensIn            int    `json:"tokens_in"`
	TokensOut           int    `json:"tokens_out"`
}

type wireCellFinished struct {
	Type       string      `json:"type"`
	Index      int         `json:"index"`
	Method     string      `json:"method"`
	Rep        int         `json:"rep"`
	Problem    string      `json:"problem"`
	DurationMS float64     `json:"duration_ms"`
	Outcome    wireOutcome `json:"outcome"`
}

type wireMethodRepDone struct {
	Type   string `json:"type"`
	Method string `json:"method"`
	Rep    int    `json:"rep"`
	Reps   int    `json:"reps"`
	Tasks  int    `json:"tasks"`
}

type wireTableReady struct {
	Type string `json:"type"`
	Name string `json:"name"`
	Text string `json:"text"`
}

type wireJobDone struct {
	Type  string `json:"type"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

func toWireOutcome(o TaskOutcome) wireOutcome {
	return wireOutcome{
		Grade:               o.Grade.String(),
		Kind:                o.Kind.String(),
		ValidatorIntervened: o.ValidatorIntervened,
		CorrectorShaped:     o.CorrectorShaped,
		FinalValidated:      o.FinalValidated,
		Corrections:         o.Corrections,
		Reboots:             o.Reboots,
		TokensIn:            o.TokensIn,
		TokensOut:           o.TokensOut,
	}
}

func gradeByName(name string) (autoeval.Grade, error) {
	for _, g := range []autoeval.Grade{autoeval.GradeFailed, autoeval.GradeEval0, autoeval.GradeEval1, autoeval.GradeEval2} {
		if g.String() == name {
			return g, nil
		}
	}
	return 0, fmt.Errorf("correctbench: unknown grade %q", name)
}

func kindByName(name string) (dataset.Kind, error) {
	for _, k := range []dataset.Kind{dataset.CMB, dataset.SEQ} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("correctbench: unknown kind %q", name)
}

func fromWireOutcome(w wireOutcome) (TaskOutcome, error) {
	grade, err := gradeByName(w.Grade)
	if err != nil {
		return TaskOutcome{}, err
	}
	kind, err := kindByName(w.Kind)
	if err != nil {
		return TaskOutcome{}, err
	}
	return TaskOutcome{
		Grade:               grade,
		Kind:                kind,
		ValidatorIntervened: w.ValidatorIntervened,
		CorrectorShaped:     w.CorrectorShaped,
		FinalValidated:      w.FinalValidated,
		Corrections:         w.Corrections,
		Reboots:             w.Reboots,
		TokensIn:            w.TokensIn,
		TokensOut:           w.TokensOut,
	}, nil
}

// MarshalEvent encodes an event as its one-line JSON wire form (no
// trailing newline).
func MarshalEvent(ev Event) ([]byte, error) {
	switch e := ev.(type) {
	case JobStarted:
		methods := e.Methods
		if methods == nil {
			methods = []string{}
		}
		return json.Marshal(wireJobStarted{
			Type: e.Type(), Job: e.Job, Methods: methods, Problems: e.Problems,
			Reps: e.Reps, TotalCells: e.TotalCells,
		})
	case CellFinished:
		return json.Marshal(wireCellFinished{
			Type: e.Type(), Index: e.Index, Method: e.Method, Rep: e.Rep,
			Problem:    e.Problem,
			DurationMS: float64(e.Duration.Microseconds()) / 1000,
			Outcome:    toWireOutcome(e.Outcome),
		})
	case MethodRepDone:
		return json.Marshal(wireMethodRepDone{
			Type: e.Type(), Method: e.Method, Rep: e.Rep, Reps: e.Reps, Tasks: e.Tasks,
		})
	case TableReady:
		return json.Marshal(wireTableReady{Type: e.Type(), Name: e.Name, Text: e.Text})
	case JobDone:
		w := wireJobDone{Type: e.Type(), OK: e.Err == nil}
		if e.Err != nil {
			w.Error = e.Err.Error()
		}
		return json.Marshal(w)
	default:
		return nil, fmt.Errorf("correctbench: unknown event type %T", ev)
	}
}

// wireError is a JobDone error reconstructed from the wire; clients
// comparing against context.Canceled must compare strings.
type wireError string

func (e wireError) Error() string { return string(e) }

// UnmarshalEvent decodes one wire line back into its typed event.
// JobDone.Results is not transported; a decoded JobDone carries only
// the error state.
func UnmarshalEvent(line []byte) (Event, error) {
	var tag struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &tag); err != nil {
		return nil, fmt.Errorf("correctbench: bad event line: %w", err)
	}
	switch tag.Type {
	case "job_started":
		var w wireJobStarted
		if err := json.Unmarshal(line, &w); err != nil {
			return nil, err
		}
		// MarshalEvent writes a nil method list as []; decode null the
		// same way so a decoded event re-encodes to itself.
		if w.Methods == nil {
			w.Methods = []string{}
		}
		return JobStarted{
			Job: w.Job, Methods: w.Methods, Problems: w.Problems,
			Reps: w.Reps, TotalCells: w.TotalCells,
		}, nil
	case "cell_finished":
		var w wireCellFinished
		if err := json.Unmarshal(line, &w); err != nil {
			return nil, err
		}
		o, err := fromWireOutcome(w.Outcome)
		if err != nil {
			return nil, err
		}
		// The outcome's problem name lives in the event envelope on
		// the wire.
		o.Problem = w.Problem
		// Round-trip through integer microseconds: the encoder wrote
		// duration_ms as microseconds/1000, so math.Round(ms*1000)
		// recovers the exact integer even when the division was not
		// representable in binary floating point. Multiplying the raw
		// float by time.Millisecond instead truncates such values by a
		// nanosecond (decode(encode(d)) != d.Truncate(µs)). A value
		// that is negative or overflows time.Duration is rejected
		// rather than wrapped.
		us := math.Round(w.DurationMS * 1000)
		if !(us >= 0 && us < math.MaxInt64/float64(time.Microsecond)) {
			return nil, fmt.Errorf("correctbench: duration_ms %g out of range", w.DurationMS)
		}
		return CellFinished{
			Index: w.Index, Method: w.Method, Rep: w.Rep, Problem: w.Problem,
			Duration: time.Duration(us) * time.Microsecond,
			Outcome:  o,
		}, nil
	case "method_rep_done":
		var w wireMethodRepDone
		if err := json.Unmarshal(line, &w); err != nil {
			return nil, err
		}
		return MethodRepDone{Method: w.Method, Rep: w.Rep, Reps: w.Reps, Tasks: w.Tasks}, nil
	case "table_ready":
		var w wireTableReady
		if err := json.Unmarshal(line, &w); err != nil {
			return nil, err
		}
		return TableReady{Name: w.Name, Text: w.Text}, nil
	case "job_done":
		var w wireJobDone
		if err := json.Unmarshal(line, &w); err != nil {
			return nil, err
		}
		ev := JobDone{}
		if !w.OK {
			ev.Err = wireError(w.Error)
		}
		return ev, nil
	default:
		return nil, fmt.Errorf("correctbench: unknown event type %q", tag.Type)
	}
}

// TaskOutcome re-exports the harness's per-cell outcome record, the
// payload of CellFinished events.
type TaskOutcome = harness.TaskOutcome
