package analysis

import (
	"go/ast"
	"go/types"
)

// This file holds the middle of the dataflow layer: a generic forward
// worklist solver over the CFG, plus the variable-fact state shared by the
// taint-style analyses (dettaint's nondeterminism taint). bitbudget reuses
// the same solver with its own numeric lattice.

// forwardFlow runs a forward dataflow over cfg to fixpoint and returns the
// stable entry state of every reachable block.
//
//   - entry is the fact at the function entry.
//   - join merges a predecessor's out-fact into an accumulated in-fact and
//     reports whether the accumulated fact changed; dst may be nil (bottom),
//     in which case join must return a copy of src.
//   - clone copies a fact; the solver hands transfer a clone of the stored
//     in-state so transfer may mutate its argument freely.
//   - transfer computes a block's out-fact from its (cloned) in-fact.
//   - widen, when non-nil, is applied to a block's freshly joined in-fact
//     after that block's state has changed more than maxChanges times; it
//     must force the fact to a fixpoint-safe top so unbounded lattices
//     (bitbudget's byte counts) terminate.
func forwardFlow[F any](
	cfg *CFG,
	entry F,
	join func(dst F, src F) (F, bool),
	clone func(F) F,
	transfer func(*Block, F) F,
	widen func(F) F,
) map[*Block]F {
	const maxChanges = 3
	rpo := cfg.RPO()
	order := make(map[*Block]int, len(rpo))
	for i, b := range rpo {
		order[b] = i
	}
	in := make(map[*Block]F, len(rpo))
	changes := make(map[*Block]int, len(rpo))
	var zero F
	in[cfg.Entry] = entry

	inQueue := make(map[*Block]bool, len(rpo))
	queue := append([]*Block(nil), rpo...)
	for _, b := range rpo {
		inQueue[b] = true
	}
	for len(queue) > 0 {
		// Pop the queued block earliest in RPO; near-linear on reducible
		// graphs and correct on any graph.
		best := 0
		for i := 1; i < len(queue); i++ {
			if order[queue[i]] < order[queue[best]] {
				best = i
			}
		}
		b := queue[best]
		queue = append(queue[:best], queue[best+1:]...)
		inQueue[b] = false

		st, ok := in[b]
		if !ok {
			continue // unreachable or not yet fed by any predecessor
		}
		out := transfer(b, clone(st))
		for _, s := range b.Succs {
			cur, seen := in[s]
			if !seen {
				cur = zero
			}
			merged, changed := join(cur, out)
			if !seen || changed {
				changes[s]++
				if widen != nil && changes[s] > maxChanges {
					merged = widen(merged)
				}
				in[s] = merged
				if !inQueue[s] {
					inQueue[s] = true
					queue = append(queue, s)
				}
			}
		}
	}
	return in
}

// varFacts is the shared map-shaped fact: one small value per tracked
// *types.Var. The zero map is bottom.
type varFacts[T comparable] map[*types.Var]T

func (f varFacts[T]) clone() varFacts[T] {
	c := make(varFacts[T], len(f))
	for k, v := range f { //flvet:ordered per-key copy into a map, order-free
		c[k] = v
	}
	return c
}

// joinUnion is the may-join: a var keeps a fact if any predecessor had one
// (first writer wins on conflicting values, which taint reasons tolerate).
func joinUnion[T comparable](dst, src varFacts[T]) (varFacts[T], bool) {
	if dst == nil {
		return src.clone(), true
	}
	changed := false
	for k, v := range src { //flvet:ordered per-key union into a map, order-free
		if _, ok := dst[k]; !ok {
			dst[k] = v
			changed = true
		}
	}
	return dst, changed
}

// joinIntersect is the must-join: a var keeps a fact only if every
// predecessor agrees on it exactly.
func joinIntersect[T comparable](dst, src varFacts[T]) (varFacts[T], bool) {
	if dst == nil {
		return src.clone(), true
	}
	changed := false
	for k, v := range dst { //flvet:ordered per-key intersection, order-free
		if sv, ok := src[k]; !ok || sv != v {
			delete(dst, k)
			changed = true
		}
	}
	return dst, changed
}

// lhsVar resolves an assignment target to the *types.Var it binds, for
// plain identifier targets. Selector/index targets return nil — the
// analyses model those separately.
func lhsVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// useVar resolves an identifier expression to the variable it reads.
func useVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// rangeVars returns the key and value loop variables of a range statement
// (nil where absent or blank).
func rangeVars(info *types.Info, r *ast.RangeStmt) (key, value *types.Var) {
	if r.Key != nil {
		key = lhsVar(info, r.Key)
	}
	if r.Value != nil {
		value = lhsVar(info, r.Value)
	}
	return key, value
}

// paramIndex returns the position of v among fn's declared parameters, or
// -1. The receiver is not a parameter.
func paramIndex(fd *ast.FuncDecl, info *types.Info, v *types.Var) int {
	if fd.Type.Params == nil {
		return -1
	}
	i := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if info.Defs[name] == v {
				return i
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	return -1
}

// receiverVar returns the declared receiver variable of a method, or nil.
func receiverVar(fd *ast.FuncDecl, info *types.Info) *types.Var {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	v, _ := info.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	return v
}
