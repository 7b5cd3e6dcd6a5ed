package isa

// Basic-block analysis over Unit instruction indices. The watermark
// embedder uses it to find tamper-proofing candidates: cold unconditional
// jumps dominated by the begin block and not inside a natural loop
// (paper §4.3).

// NBlock is a native basic block over instruction indices [Start, End).
type NBlock struct {
	Index      int
	Start, End int
}

// NCFG is the unit-level control flow graph. Instructions reached only
// through computed control flow (ret, jmpind, jmpreg) contribute no edges;
// blocks after unconditional terminators start new blocks.
type NCFG struct {
	Blocks  []NBlock
	blockOf []int
	Succs   [][]int
	Preds   [][]int
}

// BuildCFG constructs the unit's CFG. Call instructions are treated as
// straight-line (the callee returns), like a binary rewriter's intra-
// procedural view.
func BuildCFG(u *Unit) *NCFG {
	n := len(u.Instrs)
	labelIdx := make(map[string]int, n)
	for i, in := range u.Instrs {
		if in.Label != "" {
			labelIdx[in.Label] = i
		}
	}
	leader := make([]bool, n)
	if n > 0 {
		leader[0] = true
	}
	for i, in := range u.Instrs {
		if in.Op.HasRelTarget() && in.Op != OCall {
			if t, ok := labelIdx[in.Target]; ok {
				leader[t] = true
			}
		}
		if (in.Op.IsUncond() || in.Op.IsJcc()) && i+1 < n {
			leader[i+1] = true
		}
	}
	cfg := &NCFG{blockOf: make([]int, n)}
	start := -1
	for i := 0; i <= n; i++ {
		if i == n || leader[i] {
			if start >= 0 {
				cfg.Blocks = append(cfg.Blocks, NBlock{Index: len(cfg.Blocks), Start: start, End: i})
			}
			start = i
		}
	}
	for bi, b := range cfg.Blocks {
		for i := b.Start; i < b.End; i++ {
			cfg.blockOf[i] = bi
		}
	}
	cfg.Succs = make([][]int, len(cfg.Blocks))
	cfg.Preds = make([][]int, len(cfg.Blocks))
	addEdge := func(from, to int) {
		cfg.Succs[from] = append(cfg.Succs[from], to)
		cfg.Preds[to] = append(cfg.Preds[to], from)
	}
	for bi, b := range cfg.Blocks {
		last := u.Instrs[b.End-1]
		switch {
		case last.Op == OJmp:
			if t, ok := labelIdx[last.Target]; ok {
				addEdge(bi, cfg.blockOf[t])
			}
		case last.Op.IsJcc():
			if t, ok := labelIdx[last.Target]; ok {
				addEdge(bi, cfg.blockOf[t])
			}
			if b.End < n {
				addEdge(bi, cfg.blockOf[b.End])
			}
		case last.Op.IsUncond():
			// ret/hlt/jmpind/jmpreg: no static successors.
		default:
			if b.End < n {
				addEdge(bi, cfg.blockOf[b.End])
			}
		}
	}
	return cfg
}

// BlockOf returns the block index containing instruction i.
func (c *NCFG) BlockOf(i int) int { return c.blockOf[i] }

// Dominators computes the immediate-dominator-based dominance sets via the
// standard iterative bit-set algorithm; dom[b] reports, for every block a,
// whether a dominates b. Unreachable blocks are dominated by everything
// (the conventional convention) and excluded by callers via Reachable.
func (c *NCFG) Dominators() [][]bool {
	nb := len(c.Blocks)
	dom := make([][]bool, nb)
	for i := range dom {
		dom[i] = make([]bool, nb)
		for j := range dom[i] {
			dom[i][j] = true
		}
	}
	if nb == 0 {
		return dom
	}
	for j := range dom[0] {
		dom[0][j] = j == 0
	}
	changed := true
	for changed {
		changed = false
		for b := 1; b < nb; b++ {
			if len(c.Preds[b]) == 0 {
				continue
			}
			newSet := make([]bool, nb)
			for j := range newSet {
				newSet[j] = true
			}
			for _, p := range c.Preds[b] {
				for j := range newSet {
					newSet[j] = newSet[j] && dom[p][j]
				}
			}
			newSet[b] = true
			for j := range newSet {
				if newSet[j] != dom[b][j] {
					dom[b] = newSet
					changed = true
					break
				}
			}
		}
	}
	return dom
}

// Reachable returns the set of blocks reachable from the entry block via
// static edges.
func (c *NCFG) Reachable() []bool {
	seen := make([]bool, len(c.Blocks))
	if len(c.Blocks) == 0 {
		return seen
	}
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range c.Succs[b] {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// InLoop returns, per block, whether it belongs to a natural loop: it can
// reach itself through static edges.
func (c *NCFG) InLoop() []bool {
	nb := len(c.Blocks)
	out := make([]bool, nb)
	for b := 0; b < nb; b++ {
		// DFS from b's successors back to b.
		seen := make([]bool, nb)
		stack := append([]int(nil), c.Succs[b]...)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if x == b {
				out[b] = true
				break
			}
			if seen[x] {
				continue
			}
			seen[x] = true
			stack = append(stack, c.Succs[x]...)
		}
	}
	return out
}

// CollectProfile assembles and runs the unit on a training input,
// returning per-instruction-index execution counts (PLTO's profiling
// mode).
func CollectProfile(u *Unit, input []int64, stepLimit int64) (map[int]int64, error) {
	img, err := Assemble(u)
	if err != nil {
		return nil, err
	}
	cpu := NewCPU(img, input)
	cpu.profile = make([]int64, len(img.Text))
	if _, err := cpu.Run(stepLimit); err != nil {
		return nil, err
	}
	counts := make(map[int]int64)
	for i, a := range img.InstrAddrs {
		if n := cpu.profile[a-img.TextBase]; n != 0 {
			counts[i] = n
		}
	}
	return counts, nil
}
