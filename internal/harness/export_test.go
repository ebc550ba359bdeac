package harness

import (
	"context"
	"encoding/csv"
	"strings"
	"testing"
)

func TestWriteCSV(t *testing.T) {
	res, err := RunContext(context.Background(), Config{Reps: 1, Seed: 31, Problems: subset(t)})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// header + 3 methods x 1 rep x 6 tasks
	if len(rows) != 1+3*6 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0] != "method" || len(rows[0]) != 12 {
		t.Errorf("header wrong: %v", rows[0])
	}
	for _, row := range rows[1:] {
		if row[4] == "" {
			t.Errorf("missing grade in %v", row)
		}
	}
}
