package correctbench

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// FuzzUnmarshalEvent feeds arbitrary lines to the NDJSON event
// decoder, which clients run on bytes read from a correctbenchd
// stream. UnmarshalEvent must never panic, and any line it accepts
// must decode to a fixed point of MarshalEvent → UnmarshalEvent: the
// event re-encodes to a line that decodes to the same event and
// encodes to the same bytes. The corpus is seeded with every line of
// a real streamed job.
func FuzzUnmarshalEvent(f *testing.F) {
	job, err := NewClient().Submit(context.Background(), ExperimentSpec{
		Seed: 5, Reps: 1, Problems: testProblems[:2], Workers: 2,
	})
	if err != nil {
		f.Fatal(err)
	}
	for ev := range job.Events() {
		line, err := MarshalEvent(ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	f.Add([]byte(`{"type":"job_done","ok":false,"error":"context canceled"}`))
	// Durations around the time.Duration range, which once decoded to
	// a wrapped value that did not re-encode to itself.
	for _, ms := range []string{"9.3e12", "9223372036854.774", "9223372036854.776", "-3"} {
		f.Add([]byte(`{"type":"cell_finished","duration_ms":` + ms + `,"outcome":{"grade":"Eval2","kind":"SEQ"}}`))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		ev, err := UnmarshalEvent(line)
		if err != nil {
			return
		}
		enc, err := MarshalEvent(ev)
		if err != nil {
			t.Fatalf("decoded %#v does not encode: %v", ev, err)
		}
		back, err := UnmarshalEvent(enc)
		if err != nil {
			t.Fatalf("re-encoded line does not decode: %v\nline: %s\nre-encoded: %s", err, line, enc)
		}
		if !reflect.DeepEqual(back, ev) {
			t.Fatalf("event is not a fixed point\nline: %s\nfirst:  %#v\nsecond: %#v", line, ev, back)
		}
		if again, err := MarshalEvent(back); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("encoding is not a fixed point (err %v)\nfirst:  %s\nsecond: %s", err, enc, again)
		}
	})
}
