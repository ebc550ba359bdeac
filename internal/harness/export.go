package harness

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WriteCSV exports every task outcome as CSV (one row per method,
// repetition and task), for external plotting of the tables and
// figures.
func (r *Results) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"method", "rep", "problem", "kind", "grade",
		"validator_intervened", "corrector_shaped", "final_validated",
		"corrections", "reboots", "tokens_in", "tokens_out",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, method := range r.Config.Methods {
		for rep, tasks := range r.Outcomes[method] {
			for _, o := range tasks {
				row := []string{
					string(method),
					strconv.Itoa(rep),
					o.Problem,
					o.Kind.String(),
					o.Grade.String(),
					strconv.FormatBool(o.ValidatorIntervened),
					strconv.FormatBool(o.CorrectorShaped),
					strconv.FormatBool(o.FinalValidated),
					strconv.Itoa(o.Corrections),
					strconv.Itoa(o.Reboots),
					strconv.Itoa(o.TokensIn),
					strconv.Itoa(o.TokensOut),
				}
				if err := cw.Write(row); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
