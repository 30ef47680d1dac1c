package compete

import (
	"math"
	"math/bits"
	"slices"

	"radionet/internal/decay"
	"radionet/internal/radio"
	"radionet/internal/rng"
)

// bulkState is the contiguous fast-path node state behind the engine's
// BulkActor/BulkReceiver seams: flat per-node slices for the lane-local
// flood state, plus shared lane clocks. It exists because the per-node
// icpState clocks of the reference implementation are redundant — a node's
// main-lane (fid, slot, offset) is a pure function of its coarse cluster
// (every member follows the coarse center's clustering sequence, and slot
// lengths depend only on the fine clustering in play), and the background
// lane's clock is global (round-robin fids, shared slot lengths). The bulk
// path therefore keeps one clock per coarse cluster plus one background
// clock. An ICP round is one pass over the flat storage in increasing id
// order; a helper round visits only the members of fine clusters whose
// shared coin admits them to the current Decay phase (memberIndex). Both
// draw per-node randomness under exactly the reference implementation's
// gates — observational identity is enforced by the equivalence tests in
// bulk_test.go.
type bulkState struct {
	c     *Compete
	shims []bnode

	ci      []int32     // node -> main-lane clock index (compact coarse id)
	mainClk []laneClock // one main-lane clock per coarse cluster
	bgClk   laneClock   // the global background-lane clock

	mainHeard []bool  // main lane: heard the cluster flood this slot
	mainFlood []int64 // main lane: the flooded value
	bgHeard   []bool  // background lane: heard the cluster flood this slot
	bgFlood   []int64 // background lane: the flooded value

	// thr[s] is the integer Bernoulli threshold for the schedule sweep
	// probability 2^-(s+1): rnd.Uint64()>>11 < thr[s] is the same draw and
	// outcome as rnd.Bernoulli(schedule.Prob(level, t)) at s = t%level.
	thr []uint64
	// recip[l] is the fastmod reciprocal of ladder length l, so that
	// fastmod(step, recip[l], l) == step%l without a division.
	recip []uint64
	// helperThr is the same table for the Algorithm-4 decay steps.
	helperThr []uint64

	scratch []clkInfo // per-main-clock derived values for the current round

	// Helper-lane member indexes, one per clustering (mainIdx[fid] serves
	// c.mains[fid], bgIdx[fid] serves c.bgs[fid]).
	mainIdx []memberIndex
	bgIdx   []memberIndex
}

// laneClock is one shared Intra-Cluster Propagation clock (see icpState;
// the per-node heard/floodVal live in the bulkState flat slices).
type laneClock struct {
	center   int32 // owning coarse center (main clocks; unused for bg)
	fid      int32 // index into the lane's fine set
	k        int64 // slot index
	offset   int64 // round offset within the slot
	subphase int8  // set by the lane's most recent ActBulk, pre-advance
}

// clkInfo carries one clock's per-round derived values into the node pass.
type clkInfo struct {
	lvl      []uint8 // the clustering's fine.lvl
	center   []int32 // the clustering's fine centers
	step     uint32  // offset within the current sub-phase
	boundary bool
	subphase int8
}

// memberIndex lists the nodes of one fine clustering that lie within its
// curtailment, grouped by main-lane clock and, within a clock, by fine
// center (the background lane has a single clock). Every member of a
// group shares the Algorithm-4 coin, so a helper round evaluates it once
// per group and visits only the members of groups whose coin passes.
type memberIndex struct {
	clk     []int32       // clock k's groups are groups[clk[k]:clk[k+1]]
	groups  []memberGroup // in (clock, center) order
	members []int32       // group g is members[groups[g-1].end:groups[g].end], ascending
}

// memberGroup is one (clock, fine center) run of a memberIndex.
type memberGroup struct {
	center int32
	end    int32
	// coin caches the shared coin: (window+1)<<1 | admitted, 0 = empty.
	coin uint64
}

func newBulkState(c *Compete, scr *buildScratch) *bulkState {
	n := c.g.N()
	s := &bulkState{
		c:         c,
		ci:        make([]int32, n),
		mainHeard: make([]bool, n),
		mainFlood: make([]int64, n),
		bgHeard:   make([]bool, n),
		bgFlood:   make([]int64, n),
	}
	// Compact clock ids per coarse cluster, assigned in first-member order.
	compact := scr.cnt[:n]
	for i := range compact {
		compact[i] = -1
	}
	for v := 0; v < n; v++ {
		ctr := c.coarse.Center[v]
		if compact[ctr] < 0 {
			compact[ctr] = int32(len(s.mainClk))
			s.mainClk = append(s.mainClk, laneClock{center: ctr, fid: c.mainFid(ctr, 0)})
		}
		s.ci[v] = compact[ctr]
	}
	s.scratch = make([]clkInfo, len(s.mainClk))
	maxLevel := 1
	for i := range c.mains {
		maxLevel = max(maxLevel, c.mains[i].maxLevel)
		s.mainIdx = append(s.mainIdx, newMemberIndex(&c.mains[i], s.ci, len(s.mainClk), scr))
	}
	for i := range c.bgs {
		maxLevel = max(maxLevel, c.bgs[i].maxLevel)
		s.bgIdx = append(s.bgIdx, newMemberIndex(&c.bgs[i], nil, 1, scr))
	}
	s.thr = make([]uint64, maxLevel)
	s.recip = make([]uint64, maxLevel+1)
	for i := range s.thr {
		// 2^-(i+1) and 2^53 are exact powers of two, so the integer test
		// (Uint64>>11) < ceil(p*2^53) equals Float64() < p — same draw,
		// same outcome as the reference rnd.Bernoulli (cf. decay's table).
		s.thr[i] = uint64(math.Ceil(math.Ldexp(1, -(i+1)) * (1 << 53)))
		s.recip[i+1] = ^uint64(0)/uint64(i+1) + 1
	}
	s.helperThr = make([]uint64, c.l4)
	for i := range s.helperThr {
		s.helperThr[i] = uint64(math.Ceil(decay.Prob(i) * (1 << 53)))
	}
	s.shims = make([]bnode, n)
	for v := range s.shims {
		s.shims[v] = bnode{s: s, id: int32(v)}
	}
	return s
}

// newMemberIndex builds f's memberIndex with two stable counting sorts of
// the nodes within curtailment (by center, then by clock), so members stay
// ascending within a group. ci maps nodes to their clock among nclk; nil
// means every node is on clock 0. The temporaries come from scr.
func newMemberIndex(f *fine, ci []int32, nclk int, scr *buildScratch) memberIndex {
	n := len(f.lvl)
	center := f.part.Center
	clock := func(v int32) int32 {
		if ci == nil {
			return 0
		}
		return ci[v]
	}
	cnt := scr.cnt[:n+1]
	clear(cnt)
	m := 0
	for v, lv := range f.lvl {
		if lv != 0 {
			cnt[center[v]+1]++
			m++
		}
	}
	for i := 1; i <= n; i++ {
		cnt[i] += cnt[i-1]
	}
	byCenter := scr.order[:m]
	for v, lv := range f.lvl {
		if lv != 0 {
			byCenter[cnt[center[v]]] = int32(v)
			cnt[center[v]]++
		}
	}
	members := make([]int32, m)
	cnt = scr.cnt[:nclk+1]
	clear(cnt)
	for _, v := range byCenter {
		cnt[clock(v)+1]++
	}
	for k := 1; k <= nclk; k++ {
		cnt[k] += cnt[k-1]
	}
	for _, v := range byCenter {
		members[cnt[clock(v)]] = v
		cnt[clock(v)]++
	}
	// Groups are the runs of equal (clock, center); clk[k+1] counts the
	// groups of clocks 0..k.
	ix := memberIndex{clk: make([]int32, nclk+1), members: members}
	newGroup := func(i int) bool {
		return i == 0 || clock(members[i]) != clock(members[i-1]) || center[members[i]] != center[members[i-1]]
	}
	ng := 0
	for i := range members {
		if newGroup(i) {
			ng++
			ix.clk[clock(members[i])+1]++
		}
	}
	for k := 1; k <= nclk; k++ {
		ix.clk[k] += ix.clk[k-1]
	}
	ix.groups = make([]memberGroup, 0, ng)
	for i, v := range members {
		if newGroup(i) {
			ix.groups = append(ix.groups, memberGroup{center: center[v]})
		}
		ix.groups[len(ix.groups)-1].end = int32(i + 1)
	}
	return ix
}

// ActBulk implements radio.BulkActor: the round's transmitters in
// increasing id order, mirroring cnode.Act exactly (same gates, same RNG
// draws per node, same messages).
//
//radionet:hotpath
func (s *bulkState) ActBulk(t int64, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	cfg := &s.c.cfg
	lane := t % numLanes
	lt := t / numLanes
	switch lane {
	case laneMain:
		return s.actMain(tx, msgs)
	case laneHelper:
		if cfg.DisableHelper {
			return tx, msgs
		}
		return s.actHelper(true, lt, tx, msgs)
	case laneBg:
		if cfg.DisableBackground {
			return tx, msgs
		}
		return s.actBg(tx, msgs)
	default:
		if cfg.DisableBackground || cfg.DisableHelper {
			return tx, msgs
		}
		return s.actHelper(false, lt, tx, msgs)
	}
}

// icpInfo derives a clock's per-round values for the node pass.
func icpInfo(cl *laneClock, f *fine) clkInfo {
	return clkInfo{
		lvl:      f.lvl,
		center:   f.part.Center,
		step:     uint32(cl.offset % f.subLen),
		boundary: cl.offset == 0 || cl.offset == 2*f.subLen,
		subphase: int8(cl.offset / f.subLen),
	}
}

// actMain runs one main-lane ICP round: derive each coarse clock's slot
// position, pass over the nodes, then advance the clocks (post-pass, so a
// same-round Recv sees the rolled-over fid exactly as the reference does).
func (s *bulkState) actMain(tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	c := s.c
	for i := range s.mainClk {
		cl := &s.mainClk[i]
		s.scratch[i] = icpInfo(cl, &c.mains[cl.fid])
	}
	tx, msgs = s.icpPass(s.ci, s.scratch, s.mainHeard, s.mainFlood, tx, msgs)
	for i := range s.mainClk {
		cl := &s.mainClk[i]
		cl.subphase = s.scratch[i].subphase
		cl.offset++
		if cl.offset >= c.mains[cl.fid].slotLen {
			cl.offset = 0
			cl.k++
			cl.fid = c.mainFid(cl.center, cl.k)
		}
	}
	return tx, msgs
}

// actBg is actMain for the background lane's single global clock.
func (s *bulkState) actBg(tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	c := s.c
	cl := &s.bgClk
	f := &c.bgs[cl.fid]
	info := [1]clkInfo{icpInfo(cl, f)}
	tx, msgs = s.icpPass(nil, info[:], s.bgHeard, s.bgFlood, tx, msgs)
	cl.subphase = info[0].subphase
	cl.offset++
	if cl.offset >= f.slotLen {
		cl.offset = 0
		cl.k++
		cl.fid = c.bgFid(cl.k)
	}
	return tx, msgs
}

// icpPass is the shared per-node loop of one ICP lane round. ci maps each
// node to its clock in clks; a nil ci means every node shares clks[0]
// (the background lane). The first pass draws for every node the
// reference gates admit and writes the transmitters into tx's spare
// capacity; the second builds their messages.
//
//radionet:hotpath
func (s *bulkState) icpPass(ci []int32, clks []clkInfo, heard []bool, flood []int64, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	c := s.c
	gm := c.globalMax
	rnd := c.rnd[:len(gm)]
	heard, flood = heard[:len(gm)], flood[:len(gm)]
	thr, recip := s.thr, s.recip
	start := len(tx)
	tx = slices.Grow(tx, len(gm))
	out := tx[start : start+len(gm)]
	k := 0
	for v := range gm {
		info := &clks[0]
		if ci != nil {
			info = &clks[ci[v]]
		}
		if info.boundary {
			// Outward sub-phase begins: only the center holds the flood.
			if info.center[v] == int32(v) {
				heard[v] = true
				flood[v] = gm[v]
			} else {
				heard[v] = false
				flood[v] = Uninformed
			}
		}
		lv := info.lvl[v]
		if lv == 0 || !heard[v] {
			continue
		}
		// Inward sub-phase: relay only strictly better knowledge.
		if info.subphase == 1 && gm[v] <= flood[v] {
			continue
		}
		out[k] = int32(v)
		k += below(rnd[v].Uint64()>>11, thr[fastmod(info.step, recip[lv], lv)])
	}
	tx = tx[:start+k]
	base := len(msgs)
	msgs = slices.Grow(msgs, k)[:base+k]
	for j, v := range tx[start:] {
		info := &clks[0]
		if ci != nil {
			info = &clks[ci[v]]
		}
		a := flood[v] // outward sub-phases flood the cluster value
		if info.subphase == 1 {
			a = gm[v]
		}
		msgs[base+j] = radio.Message{Kind: KindICP, A: a, B: int64(info.center[v])}
	}
	return tx, msgs
}

// below returns 1 if a < b and 0 otherwise, without a branch; a and b must
// be below 2^63.
func below(a, b uint64) int { return int((a - b) >> 63) }

// fastmod returns a % d given m = ^uint64(0)/d + 1, exact for every 32-bit
// a and d (Lemire, Kaser and Kurz, "Faster remainder by direct
// computation", 2019).
func fastmod(a uint32, m uint64, d uint8) uint32 {
	hi, _ := bits.Mul64(m*uint64(a), uint64(d))
	return uint32(hi)
}

// actHelper runs one Algorithm-4 helper round for the main or background
// companion lane (cf. cnode.actHelper; the window/step/phase values are
// lane-global). Only members of admitted groups draw; the transmitters
// are then sorted into id order and given their messages.
//
//radionet:hotpath
func (s *bulkState) actHelper(isMain bool, lt int64, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	c := s.c
	l4 := int64(c.l4)
	window := lt / l4
	step := int(lt % l4)
	i := int(window%l4) + 1
	h := helperRound{
		rnd:    c.rnd,
		stamp:  uint64(window+1) << 1,
		window: uint64(window),
		p:      decay.Prob(i - 1), // 2^-i, shift-clamped for large phase lengths
		thr:    s.helperThr[step],
	}
	start := len(tx)
	if isMain {
		h.seed, h.heard = c.coinMain, s.mainHeard
		for k := range s.mainClk {
			fid := s.mainClk[k].fid
			ix := &s.mainIdx[fid]
			tx = h.draw(ix, ix.clk[k], ix.clk[k+1], fid, tx)
		}
	} else {
		h.seed, h.heard = c.coinBg, s.bgHeard
		fid := s.bgClk.fid
		ix := &s.bgIdx[fid]
		tx = h.draw(ix, 0, int32(len(ix.groups)), fid, tx)
	}
	sent := tx[start:]
	slices.Sort(sent)
	for _, v := range sent {
		var a int64
		var f *fine
		if isMain {
			a, f = s.mainFlood[v], &c.mains[s.mainClk[s.ci[v]].fid]
		} else {
			a, f = s.bgFlood[v], &c.bgs[s.bgClk.fid]
		}
		msgs = append(msgs, radio.Message{Kind: KindICP, A: a, B: int64(f.part.Center[v])})
	}
	return tx, msgs
}

// helperRound holds one helper round's lane-global values.
type helperRound struct {
	rnd    []rng.Rand
	heard  []bool
	seed   uint64  // the lane's coin seed
	stamp  uint64  // memberGroup.coin of this window, admission bit clear
	window uint64  // the Decay window
	p      float64 // this window's participation probability
	thr    uint64  // this step's transmission threshold
}

// draw appends the transmitters among groups [lo, hi) of ix, a clock's
// groups on clustering fid: a group's members draw only when the shared
// coin HashFloat(seed, fid, center, window) admits the cluster to this
// Decay phase, and only those that heard the cluster flood.
//
//radionet:hotpath
func (h *helperRound) draw(ix *memberIndex, lo, hi int32, fid int32, tx []int32) []int32 {
	var from int32
	if lo > 0 {
		from = ix.groups[lo-1].end
	}
	for g := lo; g < hi; g++ {
		gr := &ix.groups[g]
		if gr.coin&^1 != h.stamp {
			gr.coin = h.stamp
			if rng.HashFloat(h.seed, uint64(fid), uint64(gr.center), h.window) < h.p {
				gr.coin |= 1
			}
		}
		if gr.coin&1 != 0 {
			for _, v := range ix.members[from:gr.end] {
				if h.heard[v] && h.rnd[v].Uint64()>>11 < h.thr {
					tx = append(tx, v)
				}
			}
		}
		from = gr.end
	}
	return tx
}

// RecvBulk implements radio.BulkReceiver: the round's deliveries in one
// pass, mirroring cnode.Recv per listener.
//
//radionet:hotpath
func (s *bulkState) RecvBulk(t int64, listeners, msgIdx []int32, msgs []radio.Message) {
	for k, vi := range listeners {
		s.recvOne(t, int(vi), &msgs[msgIdx[k]])
	}
}

// recvOne is cnode.Recv against the flat state: value adoption plus the
// lane-local flood update, reading the shared clock the listener's lane is
// on (already advanced by this round's ActBulk, exactly like the per-node
// reference, which advances st.fid before the engine delivers).
func (s *bulkState) recvOne(t int64, v int, msg *radio.Message) {
	c := s.c
	if msg.Kind != KindICP {
		return
	}
	if msg.A > c.globalMax[v] {
		c.globalMax[v] = msg.A
		if msg.A == c.trueMax && (c.counted == nil || c.counted[v]) {
			c.prog.Add(1)
		}
	}
	lane := t % numLanes
	var cl *laneClock
	var f *fine
	var heard []bool
	var flood []int64
	switch lane {
	case laneMain, laneHelper:
		cl = &s.mainClk[s.ci[v]]
		f = &c.mains[cl.fid]
		heard, flood = s.mainHeard, s.mainFlood
	default:
		cl = &s.bgClk
		f = &c.bgs[cl.fid]
		heard, flood = s.bgHeard, s.bgFlood
	}
	if f.part.Center[v] != int32(msg.B) || f.lvl[v] == 0 {
		return
	}
	if cl.subphase != 1 || lane == laneHelper || lane == laneBgHelper {
		heard[v] = true
		if msg.A > flood[v] {
			flood[v] = msg.A
		}
	}
}

// bnode is the engine-facing shim of the bulk path: the engine needs a
// Node per vertex for construction and for the per-node fallback calls
// that remain outside the bulk seams (collision reports under collision
// detection, which carry no information to this protocol).
type bnode struct {
	s  *bulkState
	id int32
}

// IgnoresSilence implements radio.SilenceOblivious (cf. cnode).
func (nd *bnode) IgnoresSilence() bool { return true }

// Act implements radio.Node. It is unreachable: the engine never calls
// per-node Act while a BulkActor is installed, and the bulk path installs
// one unconditionally.
func (nd *bnode) Act(int64) radio.Action {
	panic("compete: per-node Act on the bulk path (engine must use ActBulk)")
}

// Recv implements radio.Node for the residual per-node deliveries outside
// the bulk seam.
func (nd *bnode) Recv(t int64, msg *radio.Message, _ bool) {
	if msg == nil {
		return
	}
	nd.s.recvOne(t, int(nd.id), msg)
}

var _ radio.BulkActor = (*bulkState)(nil)
var _ radio.BulkReceiver = (*bulkState)(nil)
var _ radio.Node = (*bnode)(nil)
var _ radio.SilenceOblivious = (*bnode)(nil)
