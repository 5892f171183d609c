package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// DIMACS CNF interchange, so the SAT core doubles as a standalone solver
// and its instances can be cross-checked with external tools.

// ParseDIMACS reads a DIMACS CNF problem into a fresh solver. Comment
// lines ("c ...") are ignored; the problem line ("p cnf vars clauses") is
// validated when present. Clauses may span lines and are terminated by 0.
func ParseDIMACS(r io.Reader) (*Solver, error) {
	s := New()
	declared := -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var cur []Lit
	ensure := func(v int) error {
		if v < 1 {
			return fmt.Errorf("sat: dimacs: variable %d out of range", v)
		}
		for s.NumVars() < v {
			s.NewVar()
		}
		return nil
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("sat: dimacs: malformed problem line %q", line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("sat: dimacs: bad variable count in %q", line)
			}
			declared = n
			if err := ensure(n); err != nil && n > 0 {
				return nil, err
			}
			continue
		}
		for _, tok := range strings.Fields(line) {
			x, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("sat: dimacs: bad literal %q", tok)
			}
			if x == 0 {
				s.AddClause(cur...)
				cur = cur[:0]
				continue
			}
			v := x
			if v < 0 {
				v = -v
			}
			if declared >= 0 && v > declared {
				return nil, fmt.Errorf("sat: dimacs: literal %d exceeds declared %d variables", x, declared)
			}
			if err := ensure(v); err != nil {
				return nil, err
			}
			cur = append(cur, MkLit(v-1, x < 0))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(cur) > 0 {
		s.AddClause(cur...)
	}
	return s, nil
}

// WriteDIMACS renders the solver's problem clauses (not learnt clauses) in
// DIMACS CNF format. Unit facts established at level 0 are emitted as unit
// clauses so the output is equisatisfiable with the solver's state.
func (s *Solver) WriteDIMACS(w io.Writer) error {
	var lines []string
	render := func(lits []Lit) string {
		var b strings.Builder
		for _, l := range lits {
			x := l.Var() + 1
			if l.Neg() {
				x = -x
			}
			fmt.Fprintf(&b, "%d ", x)
		}
		b.WriteString("0")
		return b.String()
	}
	if !s.ok {
		lines = append(lines, "1 0", "-1 0") // trivially unsat
	} else {
		for _, l := range s.trail {
			if s.level[l.Var()] == 0 {
				lines = append(lines, render([]Lit{l}))
			}
		}
		for _, c := range s.clauses {
			lines = append(lines, render(s.lits(c)))
		}
	}
	nv := s.NumVars()
	if nv == 0 {
		nv = 1
	}
	if _, err := fmt.Fprintf(w, "p cnf %d %d\n", nv, len(lines)); err != nil {
		return err
	}
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}
