// Package ssa builds the SSA-form intermediate representation the paper's
// program dependence graph is defined over (§3.1). Programs must be
// normalized first (see package unroll): loop-free, recursion-free, one
// return per function.
//
// Multiple definitions merge through explicit ite-assignments rather than
// φ-functions, making the assignment condition explicit exactly as the
// paper's language prescribes. Each Value is simultaneously a statement and
// the variable it defines (Definition 3.1); Args are the intra-procedural
// data dependences and Guard is the innermost control dependence.
package ssa

import (
	"fmt"
	"strings"

	"fusion/internal/lang"
)

// Op discriminates SSA value kinds.
type Op int

// Value operations.
const (
	OpConst  Op = iota // integer, boolean, or null constant
	OpParam            // function parameter; the identity statement v = <v>
	OpCopy             // v1 = v2
	OpNot              // boolean negation
	OpNeg              // arithmetic negation
	OpBin              // binary operation v1 = v2 ⊕ v3
	OpIte              // v1 = ite(v2, v3, v4)
	OpCall             // call to a function with a body
	OpExtern           // call to an extern (empty) function
	OpBranch           // if-statement vertex: guard with condition Args[0]
	OpReturn           // the function's single return statement
)

var opNames = [...]string{
	OpConst: "const", OpParam: "param", OpCopy: "copy", OpNot: "not",
	OpNeg: "neg", OpBin: "bin", OpIte: "ite", OpCall: "call",
	OpExtern: "extern", OpBranch: "branch", OpReturn: "return",
}

func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

// Value is one vertex of the SSA graph: a statement and the variable it
// defines.
type Value struct {
	ID     int // unique within the enclosing function
	Op     Op  //
	Type   lang.Type
	Args   []*Value   // operands; data-dependence predecessors
	Const  uint32     // constant payload for OpConst (bool: 0 or 1; null: 0)
	BinOp  lang.BinOp // operator for OpBin
	Callee string     // target name for OpCall and OpExtern
	Site   int        // program-unique call-site ID for OpCall and OpExtern
	Guard  *Value     // innermost OpBranch this value is control-dependent on
	Name   string     // source variable this value defines, if any
	Pos    lang.Pos   //
	Fn     *Function  // enclosing function
	Uses   []*Value   // intra-procedural data-dependence successors
}

// String renders a value for debugging: "v12 = bin(+ v3, v4) [c]".
func (v *Value) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v%d", v.ID)
	if v.Name != "" {
		fmt.Fprintf(&b, "(%s)", v.Name)
	}
	fmt.Fprintf(&b, " = %s", v.Op)
	switch v.Op {
	case OpConst:
		fmt.Fprintf(&b, " %d:%s", v.Const, v.Type)
	case OpBin:
		fmt.Fprintf(&b, " %s", v.BinOp)
	case OpCall, OpExtern:
		fmt.Fprintf(&b, " %s#%d", v.Callee, v.Site)
	}
	for _, a := range v.Args {
		fmt.Fprintf(&b, " v%d", a.ID)
	}
	if v.Guard != nil {
		fmt.Fprintf(&b, " @v%d", v.Guard.ID)
	}
	return b.String()
}

// Function is a function in SSA form.
type Function struct {
	Name   string
	Params []*Value
	Values []*Value // every value, in construction (topological) order
	Ret    *Value   // the OpReturn vertex; nil for void functions
	Decl   *lang.FuncDecl
}

// Value returns the value with the given ID, or nil.
func (f *Function) Value(id int) *Value {
	if id < 0 || id >= len(f.Values) {
		return nil
	}
	return f.Values[id]
}

// CallSites returns every OpCall and OpExtern value in the function.
func (f *Function) CallSites() []*Value {
	var out []*Value
	for _, v := range f.Values {
		if v.Op == OpCall || v.Op == OpExtern {
			out = append(out, v)
		}
	}
	return out
}

// String renders the function for debugging.
func (f *Function) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s:\n", f.Name)
	for _, v := range f.Values {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return b.String()
}

// Program is a whole program in SSA form.
type Program struct {
	Funcs map[string]*Function
	Order []*Function // declaration order, defined functions only
	// Externs records the signature of each extern function by name.
	Externs map[string]*lang.FuncDecl
	// NumSites is the number of call sites allocated; site IDs are
	// 0..NumSites-1 and unique across the program.
	NumSites int
}

// NumValues returns the total vertex count across all functions.
func (p *Program) NumValues() int {
	n := 0
	for _, f := range p.Order {
		n += len(f.Values)
	}
	return n
}
