// The courseviz subcommand: regenerate the paper's figures and tables
// from the embedded course data, the Go reimplementation of the
// artifact scripts SW-2 (make_plots.py) and SW-3 (make_tables.py).
//
//	perfeng courseviz -artifact all
//	perfeng courseviz -artifact table2a -markdown
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"perfeng/internal/course"
	"perfeng/internal/report"
)

// artifacts maps each -artifact name to its renderer; the bool selects
// markdown tables. allArtifacts is the order of -artifact all, which
// leaves out the raw data.
var artifacts = map[string]func(w io.Writer, md bool) error{
	"figure1": figure1,
	"table1":  table(course.Table1),
	"table2a": table(course.Table2aReport),
	"table2b": table(course.Table2bReport),
	"figure2": figure2,
	"grades":  grades,
	"data":    dataCSV,
	"lessons": lessons,
}

var allArtifacts = []string{"figure1", "table1", "table2a", "table2b", "figure2", "grades", "lessons"}

func writeCourseviz(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("courseviz", flag.ExitOnError)
	var (
		artifact = fs.String("artifact", "all",
			"figure1 | table1 | table2a | table2b | figure2 | grades | data | lessons | all")
		markdown = fs.Bool("markdown", false, "render tables as markdown")
	)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	if *artifact == "all" {
		for _, name := range allArtifacts {
			if err := artifacts[name](w, *markdown); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	emit, ok := artifacts[*artifact]
	if !ok {
		return fmt.Errorf("unknown artifact %q", *artifact)
	}
	return emit(w, *markdown)
}

// table renders the report.Table that build returns as text or markdown.
func table(build func() *report.Table) func(io.Writer, bool) error {
	return func(w io.Writer, md bool) error {
		t := build()
		s := t.String()
		if md {
			s = t.Markdown()
		}
		_, err := io.WriteString(w, s)
		return err
	}
}

func figure1(w io.Writer, _ bool) error {
	_, err := io.WriteString(w, course.Figure1(64, 16))
	return err
}

func figure2(w io.Writer, _ bool) error {
	s, err := course.Figure2()
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, s)
	return err
}

// grades demonstrates Equations 1-3 on representative student profiles,
// reproducing the paper's observations: average ~8, slack between exam and
// assignments, clamp at 10.
func grades(w io.Writer, _ bool) error {
	fmt.Fprintln(w, "Grading scheme (Equations 1-3):")
	fmt.Fprintln(w, "  G  = max(1, min(10, 0.5*Gp + 0.3*Ga + 0.3*(Ge + Sq/70)))")
	fmt.Fprintln(w, "  Gp = 0.4*Gproject + 0.3*Greport + 0.3*avg(talks)")
	fmt.Fprintln(w, "  Ga = 10 * sum(assignment points) / N,  N = 32/36/40 for 1/2/3-4 students")
	fmt.Fprintln(w)

	profiles := []struct {
		name string
		rec  course.StudentRecord
	}{
		{"typical passing student (paper average ~8)", course.StudentRecord{
			TeamSize: 2, Assignment: [4]float64{7, 6, 8, 8},
			Project: 7.5, Report: 7, MidtermTalk: 7.5, FinalTalk: 8,
			Exam: 7, QuizScore: 15}},
		{"top student (hits the clamp)", course.StudentRecord{
			TeamSize: 1, Assignment: [4]float64{10, 9, 11, 12},
			Project: 10, Report: 10, MidtermTalk: 10, FinalTalk: 10,
			Exam: 10, QuizScore: 70}},
		{"struggling student", course.StudentRecord{
			TeamSize: 4, Assignment: [4]float64{5, 4, 5, 6},
			Project: 6, Report: 5, MidtermTalk: 6, FinalTalk: 6,
			Exam: 4, QuizScore: 5}},
	}
	for _, p := range profiles {
		g, err := p.rec.Grade()
		if err != nil {
			return err
		}
		verdict := "fail"
		if course.Passed(g) {
			verdict = "pass"
		}
		fmt.Fprintf(w, "  %-45s G = %.2f (%s)\n", p.name, g, verdict)
	}
	return nil
}

// dataCSV emits the raw data artifacts (DATA-1 then DATA-2) as CSV, the
// shape of the course repository's data/students.csv and data/metrics.csv.
func dataCSV(w io.Writer, _ bool) error {
	fmt.Fprintln(w, "# DATA-1: data/students.csv")
	if err := course.WriteStudentsCSV(w, course.Students()); err != nil {
		return err
	}
	fmt.Fprintln(w, "# DATA-2: data/metrics.csv")
	return course.WriteMetricsCSV(w)
}

// lessons prints Section 6 of the paper.
func lessons(w io.Writer, _ bool) error {
	fmt.Fprintln(w, "Lessons learned (Section 6):")
	for _, l := range course.Lessons() {
		fmt.Fprintf(w, "  %d. %s\n     %s\n", l.Number, l.Title, l.Essence)
	}
	return nil
}
