package workload

import (
	"repro/internal/model"
)

// This file holds the PVM-style SPMD generators: strongly structured
// communication with neighbour locality, collective phases, and
// scatter-gather, mirroring the Cowichan-benchmark-style programs of the
// paper's corpus.

// ringWeights gives each ring edge (p, p+1) a deterministic message weight
// in {1,2,3}. Real SPMD programs never exchange perfectly uniform traffic —
// boundary sizes differ per process — and the variation matters: with
// exactly equal pairwise counts, greedy agglomeration degenerates into
// power-of-two blocks that cannot pack odd cluster-size bounds.
func ringWeights(n int) []int {
	w := make([]int, n)
	for p := 0; p < n; p++ {
		h := uint32(p+1) * 2654435761 // Knuth multiplicative hash
		h ^= h >> 16
		w[p] = 2 + int(h%3)
	}
	return w
}

// Ring builds a 1-D nearest-neighbour halo exchange: in each round every
// process exchanges with its successor on the ring (and, if bidirectional,
// its predecessor), then computes (a unary event). Communication is
// perfectly local along the ring order, with per-edge weights from
// ringWeights.
func Ring(n, rounds int, bidirectional bool) *model.Trace {
	b := model.NewBuilder("", n)
	w := ringWeights(n)
	for round := 0; round < rounds; round++ {
		for p := 0; p < n; p++ {
			for k := 0; k < w[p]; k++ {
				b.Message(model.ProcessID(p), model.ProcessID((p+1)%n))
			}
		}
		if bidirectional {
			for p := 0; p < n; p++ {
				b.Message(model.ProcessID(p), model.ProcessID((p+n-1)%n))
			}
		}
	}
	return b.Trace()
}

// Stencil2D builds a rows×cols process mesh performing iters iterations of
// 4-neighbour halo exchange (no wraparound), the classic SPMD stencil.
// Processes are numbered row-major; horizontal halos are heavier than
// vertical ones (row-major data layout makes row neighbours exchange
// contiguous strips more often), so locality follows row blocks. Each
// process performs compute unary events between iterations.
func Stencil2D(rows, cols, iters int) *model.Trace {
	n := rows * cols
	b := model.NewBuilder("", n)
	id := func(r, c int) model.ProcessID { return model.ProcessID(r*cols + c) }
	w := ringWeights(n)
	for it := 0; it < iters; it++ {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if c+1 < cols {
					// Heavy horizontal halo, weight-varied.
					for k := 0; k < 1+w[r*cols+c]; k++ {
						b.Message(id(r, c), id(r, c+1))
						b.Message(id(r, c+1), id(r, c))
					}
				}
				if r+1 < rows {
					b.Message(id(r, c), id(r+1, c))
					b.Message(id(r+1, c), id(r, c))
				}
			}
		}
		for p := 0; p < n; p++ {
			b.Unary(model.ProcessID(p))
			b.Unary(model.ProcessID(p))
		}
	}
	return b.Trace()
}

// hierScatterGather builds a hierarchical scatter-gather: the master
// scatters work to group leaders, leaders fan out within their group and
// gather results back before reporting to the master. This is the
// group-structured form of scatter-gather common in large SPMD runs (a flat
// 1-to-N fan is a pure hub and cannot be captured by size-bounded clusters).
// Process 0 is the master; groups of groupSize processes follow.
func hierScatterGather(n, groupSize, rounds int) *model.Trace {
	if groupSize < 2 {
		groupSize = 2
	}
	b := model.NewBuilder("", n)
	const master = model.ProcessID(0)
	// Group boundaries vary around groupSize (±2): uneven data
	// decomposition, as in real SPMD runs.
	var bounds []int
	for lo := 1; lo < n; {
		sz := groupSize + (len(bounds)*3)%5 - 2
		if sz < 2 {
			sz = 2
		}
		bounds = append(bounds, lo)
		lo += sz
	}
	bounds = append(bounds, n)
	for round := 0; round < rounds; round++ {
		for g := 0; g+1 < len(bounds); g++ {
			lo, hi := bounds[g], bounds[g+1]
			leader := model.ProcessID(lo)
			b.Message(master, leader)
			for w := lo + 1; w < hi; w++ {
				b.Message(leader, model.ProcessID(w))
			}
			for w := lo + 1; w < hi; w++ {
				b.Unary(model.ProcessID(w))
				b.Message(model.ProcessID(w), leader)
			}
			b.Unary(leader)
			b.Message(leader, master)
		}
		b.Unary(master)
	}
	return b.Trace()
}

// TreeReduce builds rounds of a binary-tree reduction followed by a
// broadcast down the same tree: leaves send up to parents, the root
// broadcasts back. Locality is hierarchical — subtrees communicate
// internally.
func TreeReduce(n, rounds int) *model.Trace {
	b := model.NewBuilder("", n)
	w := ringWeights(n)
	for round := 0; round < rounds; round++ {
		// Reduce: children send partial results to their parent, deepest
		// first; payload sizes (message counts) vary per child.
		for p := n - 1; p >= 1; p-- {
			parent := (p - 1) / 2
			for k := 0; k < w[p]; k++ {
				b.Message(model.ProcessID(p), model.ProcessID(parent))
			}
		}
		b.Unary(0)
		// Broadcast: parent sends to children, shallowest first; each
		// node computes between rounds.
		for p := 0; p < n; p++ {
			for _, child := range []int{2*p + 1, 2*p + 2} {
				if child < n {
					b.Message(model.ProcessID(p), model.ProcessID(child))
				}
			}
			b.Unary(model.ProcessID(p))
		}
	}
	return b.Trace()
}

// Pipeline builds a linear processing pipeline: items items enter at process
// 0 and flow through every stage in order, with a unary compute event at
// each stage. Communication is strictly between adjacent stages; stages
// forward one or more messages per item (ringWeights heterogeneity).
func Pipeline(n, items int) *model.Trace {
	b := model.NewBuilder("", n)
	w := ringWeights(n)
	for item := 0; item < items; item++ {
		b.Unary(0)
		for p := 0; p+1 < n; p++ {
			for k := 0; k < w[p]; k++ {
				b.Message(model.ProcessID(p), model.ProcessID(p+1))
			}
			b.Unary(model.ProcessID(p + 1))
		}
	}
	return b.Trace()
}

// wavefront builds a rows×cols wavefront computation (e.g. dynamic
// programming): each cell receives from its left and upper neighbours and
// sends to its right and lower neighbours, per sweep.
func wavefront(rows, cols, sweeps int) *model.Trace {
	n := rows * cols
	b := model.NewBuilder("", n)
	id := func(r, c int) model.ProcessID { return model.ProcessID(r*cols + c) }
	w := ringWeights(rows * cols)
	for s := 0; s < sweeps; s++ {
		// Process cells in anti-diagonal order so sends precede receives.
		// Rightward (within-row) dependencies carry more data than
		// downward ones, and weights vary per cell.
		for d := 0; d <= rows+cols-2; d++ {
			for r := 0; r < rows; r++ {
				c := d - r
				if c < 0 || c >= cols {
					continue
				}
				b.Unary(id(r, c))
				if c+1 < cols {
					for k := 0; k < 1+w[r*cols+c]; k++ {
						b.Message(id(r, c), id(r, c+1))
					}
				}
				if r+1 < rows {
					b.Message(id(r, c), id(r+1, c))
				}
			}
		}
	}
	return b.Trace()
}

// Butterfly builds rounds of a hypercube (butterfly) all-reduce over n
// processes (n need not be a power of two; partners beyond n wrap via
// modulo). At dimension k every process exchanges with the process whose id
// differs in bit k. Low-order dimensions are local, high-order dimensions
// are long-range: the classic low-locality control in the corpus.
func Butterfly(n, rounds int) *model.Trace {
	b := model.NewBuilder("", n)
	dims := 0
	for 1<<dims < n {
		dims++
	}
	for round := 0; round < rounds; round++ {
		for k := 0; k < dims; k++ {
			for p := 0; p < n; p++ {
				q := p ^ (1 << k)
				if q >= n {
					q %= n
				}
				if q == p {
					continue
				}
				if p < q {
					b.Message(model.ProcessID(p), model.ProcessID(q))
					b.Message(model.ProcessID(q), model.ProcessID(p))
				}
			}
		}
		for p := 0; p < n; p++ {
			b.Unary(model.ProcessID(p))
		}
	}
	return b.Trace()
}

// BroadcastThenRing builds a phase-structured SPMD program: a startup phase
// in which the master broadcasts configuration directly to every process,
// followed by a long nearest-neighbour ring steady state. The startup
// pattern differs from the dominant pattern — the regime in which
// merge-on-1st-communication locks in poor clusters (it eagerly co-clusters
// the master with whichever workers it reaches first), while the static
// algorithm sees the ring dominate the communication counts.
func BroadcastThenRing(n, rounds int) *model.Trace {
	b := model.NewBuilder("", n)
	const master = model.ProcessID(0)
	for w := 1; w < n; w++ {
		b.Message(master, model.ProcessID(w))
	}
	w := ringWeights(n)
	for round := 0; round < rounds; round++ {
		for p := 0; p < n; p++ {
			for k := 0; k < w[p]; k++ {
				b.Message(model.ProcessID(p), model.ProcessID((p+1)%n))
			}
		}
	}
	return b.Trace()
}

// cowichanPhases imitates a chained Cowichan-style benchmark (randmat →
// thresh → winnow …): a sequence of phases, each a scatter from the master,
// neighbour exchange among workers, and a gather back, with compute events
// throughout.
func cowichanPhases(n, phases int, seed int64) *model.Trace {
	r := rng(seed)
	b := model.NewBuilder("", n)
	const master = model.ProcessID(0)
	for ph := 0; ph < phases; ph++ {
		for w := 1; w < n; w++ {
			b.Message(master, model.ProcessID(w))
		}
		// Workers exchange with ring neighbours a few times (boundary
		// data), then compute; neighbour traffic dominates the
		// scatter/gather hub traffic as in the real benchmarks.
		for pass := 0; pass < 4; pass++ {
			for w := 1; w < n; w++ {
				q := w + 1
				if q >= n {
					q = 1
				}
				if q == w {
					continue
				}
				b.Message(model.ProcessID(w), model.ProcessID(q))
			}
		}
		for w := 1; w < n; w++ {
			for k := 0; k < 1+r.Intn(3); k++ {
				b.Unary(model.ProcessID(w))
			}
		}
		for w := 1; w < n; w++ {
			b.Message(model.ProcessID(w), master)
		}
		b.Unary(master)
	}
	return b.Trace()
}
