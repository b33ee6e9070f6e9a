package harness

import (
	"fmt"
	"io"
	"strings"
)

// experiment is one named paperbench experiment: a compute + print pair.
// run returns the number of ERR(<kind>) rows embedded in the printed
// output — row-level failures the sweep survived — and a hard error when
// the experiment could not run at all.
type experiment struct {
	name string
	run  func(o Options, w io.Writer) (int, error)
}

// experimentOrder lists every experiment in paperbench's report order.
// fig10 and fig11 are independent entries over the same EsSweep; the
// pool's memo cache makes the second rendering free.
var experimentOrder = []experiment{
	{"table1", func(o Options, w io.Writer) (int, error) {
		rows, err := Table1(o)
		if err != nil {
			return 0, err
		}
		PrintTable1(w, rows)
		return 0, nil
	}},
	{"storage", func(o Options, w io.Writer) (int, error) {
		PrintStorage(w)
		return 0, nil
	}},
	{"fig1", func(o Options, w io.Writer) (int, error) {
		rows, err := Fig1(o)
		if err != nil {
			return 0, err
		}
		PrintFig1(w, rows)
		return 0, nil
	}},
	{"fig2", func(o Options, w io.Writer) (int, error) {
		tl, err := Fig2()
		if err != nil {
			return 0, err
		}
		PrintFig2(w, tl)
		return 0, nil
	}},
	{"fig3", func(o Options, w io.Writer) (int, error) {
		return 0, PrintFig3(w)
	}},
	{"fig7", func(o Options, w io.Writer) (int, error) {
		rows, err := Fig7(o)
		if err != nil {
			return 0, err
		}
		PrintFig7(w, rows)
		return countAppErrs(rows), nil
	}},
	{"fig8", func(o Options, w io.Writer) (int, error) {
		rows, err := Fig8(o)
		if err != nil {
			return 0, err
		}
		PrintFig8(w, rows)
		n := 0
		for _, r := range rows {
			if r.Err != nil {
				n++
			}
		}
		return n, nil
	}},
	{"fig9a", func(o Options, w io.Writer) (int, error) {
		rows, err := Fig9a(o)
		if err != nil {
			return 0, err
		}
		PrintFig9(w, rows, false)
		return countCmpErrs(rows), nil
	}},
	{"fig9b", func(o Options, w io.Writer) (int, error) {
		rows, err := Fig9b(o)
		if err != nil {
			return 0, err
		}
		PrintFig9(w, rows, true)
		return countCmpErrs(rows), nil
	}},
	{"fig10", func(o Options, w io.Writer) (int, error) {
		rows, err := EsSweep(o)
		if err != nil {
			return 0, err
		}
		PrintFig10(w, rows)
		return 0, nil
	}},
	{"fig11", func(o Options, w io.Writer) (int, error) {
		rows, err := EsSweep(o)
		if err != nil {
			return 0, err
		}
		PrintFig11(w, rows)
		return 0, nil
	}},
	{"fig12a", func(o Options, w io.Writer) (int, error) {
		rows, err := Fig12a(o)
		if err != nil {
			return 0, err
		}
		PrintFig12(w, rows, false)
		return 0, nil
	}},
	{"fig12b", func(o Options, w io.Writer) (int, error) {
		rows, err := Fig12b(o)
		if err != nil {
			return 0, err
		}
		PrintFig12(w, rows, true)
		return 0, nil
	}},
	{"fig13", func(o Options, w io.Writer) (int, error) {
		rows, err := Fig13(o)
		if err != nil {
			return 0, err
		}
		PrintFig13(w, rows)
		return 0, nil
	}},
	{"energy", func(o Options, w io.Writer) (int, error) {
		rows, err := Energy(o)
		if err != nil {
			return 0, err
		}
		PrintEnergy(w, rows)
		return 0, nil
	}},
	{"seeds", func(o Options, w io.Writer) (int, error) {
		rows, err := SeedStability(o, nil)
		if err != nil {
			return 0, err
		}
		PrintSeedStability(w, rows)
		return 0, nil
	}},
	{"generality", func(o Options, w io.Writer) (int, error) {
		rows, err := Generality(o)
		if err != nil {
			return 0, err
		}
		PrintGenerality(w, rows)
		return 0, nil
	}},
}

func countAppErrs(rows []AppResult) int {
	n := 0
	for _, r := range rows {
		if r.Err != nil {
			n++
		}
	}
	return n
}

// countCmpErrs counts the ERR cells in a comparison sweep: whole-row
// failures plus per-technique column failures.
func countCmpErrs(rows []CmpResult) int {
	n := 0
	for _, r := range rows {
		if r.Err != nil {
			n++
			continue
		}
		for _, err := range r.TechErr {
			if err != nil {
				n++
			}
		}
	}
	return n
}

// ExperimentNames lists every named experiment in report order; these
// are the values paperbench's -exp flag and the service's experiment
// jobs accept.
func ExperimentNames() []string {
	out := make([]string, len(experimentOrder))
	for i, e := range experimentOrder {
		out[i] = e.name
	}
	return out
}

// IsExperiment reports whether name is a known experiment.
func IsExperiment(name string) bool {
	for _, e := range experimentOrder {
		if e.name == name {
			return true
		}
	}
	return false
}

// NotFoundError is the typed "no such name" rejection for every
// registry lookup the tools expose (-exp, -policy, -w): it carries the
// rejected name and the full valid set, so usage output can always list
// what would have worked instead of leaving the user to guess.
type NotFoundError struct {
	Kind  string // "experiment" | "policy" | "workload"
	Name  string
	Valid []string
}

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("unknown %s %q (want %s)", e.Kind, e.Name, strings.Join(e.Valid, " | "))
}

// RunExperiment regenerates one named experiment, printing its tables to
// w. The int return counts ERR(<kind>) rows the sweep survived (callers
// turn a non-zero count into a failing exit); the error return is a hard
// failure that prevented the experiment from running — a *NotFoundError
// listing ExperimentNames when the name is unknown.
func RunExperiment(name string, o Options, w io.Writer) (int, error) {
	for _, e := range experimentOrder {
		if e.name == name {
			return e.run(o, w)
		}
	}
	return 0, &NotFoundError{Kind: "experiment", Name: name, Valid: ExperimentNames()}
}
