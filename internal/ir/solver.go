package ir

// Generic dataflow framework over an abstract graph (node indices plus
// successor / predecessor lists). The HD2xx lint passes run it on an
// ir.Func's blocks through BlockGraph: the CFG the optimizer, the bytecode
// compiler and the HD6xx facts share. Two forms are provided: a lattice
// solver parameterized by meet/transfer, and a gen/kill bit-vector
// specialization for the common case.

// Direction selects forward or backward propagation.
type Direction int

// Dataflow directions.
const (
	Forward Direction = iota
	Backward
)

// Graph is the abstract CFG the solvers run on.
type Graph struct {
	N     int
	Succs [][]int
	Preds [][]int
}

// BlockGraph adapts an ir.Func's blocks into a Graph.
func BlockGraph(f *Func) Graph {
	g := Graph{N: len(f.Blocks), Succs: make([][]int, len(f.Blocks)), Preds: make([][]int, len(f.Blocks))}
	for i, b := range f.Blocks {
		for _, s := range b.Succs {
			g.Succs[i] = append(g.Succs[i], s.ID)
		}
		for _, p := range b.Preds {
			g.Preds[i] = append(g.Preds[i], p.ID)
		}
	}
	return g
}

// Problem is a lattice dataflow problem. Transfer must be monotone; Meet
// must be commutative and associative. Top is the initial value of every
// node's input.
type Problem[S any] struct {
	Dir      Direction
	Top      func() S
	Meet     func(a, b S) S
	Transfer func(node int, in S) S
	Equal    func(a, b S) bool
}

// Solve runs round-robin iteration to a fixpoint and returns the IN and
// OUT value per node (IN is the meet over the relevant neighbors; OUT is
// Transfer(IN)). For Backward problems, IN is the meet over successors'
// OUT — i.e. the value at the node's exit — matching the usual liveness
// formulation.
func Solve[S any](g Graph, p Problem[S]) (in, out []S) {
	in = make([]S, g.N)
	out = make([]S, g.N)
	for i := 0; i < g.N; i++ {
		in[i] = p.Top()
		out[i] = p.Transfer(i, in[i])
	}
	neighbors := g.Preds
	order := make([]int, g.N)
	for i := range order {
		order[i] = i
	}
	if p.Dir == Backward {
		neighbors = g.Succs
		for i := range order {
			order[i] = g.N - 1 - i
		}
	}
	for changed := true; changed; {
		changed = false
		for _, i := range order {
			merged := p.Top()
			for _, nb := range neighbors[i] {
				merged = p.Meet(merged, out[nb])
			}
			in[i] = merged
			next := p.Transfer(i, merged)
			if !p.Equal(next, out[i]) {
				out[i] = next
				changed = true
			}
		}
	}
	return in, out
}

// Bits is a dense bitset used by the gen/kill solver.
type Bits []uint64

// NewBits returns a bitset sized for n bits.
func NewBits(n int) Bits { return make(Bits, (n+63)/64) }

// Set sets bit i.
func (b Bits) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Clear clears bit i.
func (b Bits) Clear(i int) { b[i/64] &^= 1 << (uint(i) % 64) }

// Get reports bit i.
func (b Bits) Get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// Copy returns an independent copy.
func (b Bits) Copy() Bits {
	c := make(Bits, len(b))
	copy(c, b)
	return c
}

// Or unions o into b.
func (b Bits) Or(o Bits) {
	for i := range b {
		b[i] |= o[i]
	}
}

// AndNot clears o's bits from b.
func (b Bits) AndNot(o Bits) {
	for i := range b {
		b[i] &^= o[i]
	}
}

// EqualBits reports equality.
func EqualBits(a, b Bits) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// GenKill is a node's gen/kill pair: OUT = (IN &^ Kill) | Gen.
type GenKill struct {
	Gen, Kill Bits
}

// SolveGenKill solves a union (may-) gen/kill problem over nbits facts.
func SolveGenKill(g Graph, dir Direction, nbits int, node func(i int) GenKill) (in, out []Bits) {
	p := Problem[Bits]{
		Dir:  dir,
		Top:  func() Bits { return NewBits(nbits) },
		Meet: func(a, b Bits) Bits { c := a.Copy(); c.Or(b); return c },
		Transfer: func(i int, s Bits) Bits {
			gk := node(i)
			o := s.Copy()
			if gk.Kill != nil {
				o.AndNot(gk.Kill)
			}
			if gk.Gen != nil {
				o.Or(gk.Gen)
			}
			return o
		},
		Equal: EqualBits,
	}
	return Solve(g, p)
}
