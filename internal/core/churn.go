package core

import (
	"fmt"

	"repro/internal/rng"
)

// Churn support: reconfigurable networks do not only shrink. The paper's
// model covers deletions; joins are the natural companion operation for
// the overlay networks that motivate it (peers arrive as well as crash).
// A joining node attaches to a set of live nodes, starts with δ = 0 (its
// initial degree is its join degree), weight 1, and a fresh singleton
// component in the healing forest. All of DASH's invariants survive
// joins:
//
//   - G′ gains an isolated node, so it stays a forest;
//   - rem(v) of existing nodes can only grow (weight was added nowhere,
//     and new G edges are not healing edges);
//   - component labels stay accurate (the newcomer labels itself).

// Join adds a new node connected to attachTo (at least one live node
// unless the caller wants an isolated newcomer), drawing its random
// initial ID from r. It returns the new node's index.
func (s *State) Join(attachTo []int, r *rng.RNG) int {
	v := s.grow(attachTo, r, 0)
	for _, u := range attachTo {
		s.G.AddEdge(v, u)
	}
	s.initDeg[v] = s.G.Degree(v)
	if s.hooks != nil && s.hooks.OnJoin != nil {
		s.hooks.OnJoin(v, attachTo)
	}
	return v
}

// grow is a join's bookkeeping, shared by Join and the sharded path's
// admission: it checks that attachTo is alive, allocates node v in G
// and G′, draws v's unique initial ID from r, and appends v's per-node
// entries with initial degree initDeg. It moves every per-node array,
// so the sharded path runs it under its grow lock.
func (s *State) grow(attachTo []int, r *rng.RNG, initDeg int) int {
	for _, u := range attachTo {
		if !s.G.Alive(u) {
			panic(fmt.Sprintf("core: joining to dead node %d", u))
		}
	}
	v := s.G.AddNode()
	if s.Gp.AddNode() != v {
		panic("core: G and G' diverged in size")
	}
	id := r.Uint64()
	for {
		if _, dup := s.usedIDs[id]; !dup {
			break
		}
		id = r.Uint64()
	}
	s.usedIDs[id] = struct{}{}
	s.initID = append(s.initID, id)
	s.curID = append(s.curID, id)
	s.initDeg = append(s.initDeg, initDeg)
	s.weight = append(s.weight, 1)
	s.idChanges = append(s.idChanges, 0)
	s.msgSent = append(s.msgSent, 0)
	s.msgRecv = append(s.msgRecv, 0)
	s.joined++
	return v
}

// Joined returns how many nodes have joined since construction.
func (s *State) Joined() int { return s.joined }
