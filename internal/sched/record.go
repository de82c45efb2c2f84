package sched

import (
	"math/rand"

	"spotlight/internal/workload"
)

// maxRaw is the most values a draw consumes when no draw rejects: two
// unroll picks, six swaps per free loop order, and an L2 and an RF tile
// per searchable dimension.
const maxRaw = 2 + 2*(workload.NumDims-1) + 2*workload.NumDims

// Record is one draw kept as the random values it consumed rather than
// the schedule they build. Recorder.Skip fills it, advancing the
// generator exactly as RandomTo would, and Recorder.Decode builds the
// schedule from it later, only if it is wanted. A Record is
// caller-owned and reusable; its zero value is ready for Skip.
type Record struct {
	// words holds each consumed Int63 value v as uint32(v>>31), the
	// bits intn (its top 31) and shuffleDims (all 32) read.
	words [maxRaw]uint32
	// exact is set when Skip's test flagged a value that might have
	// been rejected; s then holds the schedule RandomTo drew.
	exact bool
	s     *Schedule // allocated by the first flagged Skip
}

// Recorder records draws and decodes them. It owns one replaying
// generator, through which both the fallback of a flagged Skip and every
// Decode run the sampler's own RandomTo, so the draw's layout is written
// down only there. A Recorder is not safe for concurrent use.
type Recorder struct {
	src replay
	rng *rand.Rand // reads src
}

// NewRecorder returns a Recorder ready for any sampler.
func NewRecorder() *Recorder {
	rc := new(Recorder)
	rc.rng = rand.New(&rc.src)
	return rc
}

// Skip draws what sp.RandomTo would draw from rng into r, leaving rng in
// the state RandomTo leaves it. It pulls the sampler's nraw values and
// tests each with one conservative check: a value above the
// sampler-wide intn threshold (1<<31)-1-maxN, where maxN is the longest
// list the sampler picks from, or a shuffle product whose low word is
// below its n. Values passing the check cannot be rejected by any draw
// that reads them, so the draw consumed exactly these values and Decode
// can replay them. The check flags a value with chance about maxN/2³¹,
// so rarely; Skip then replays the recorded values, then rng, through
// RandomTo, which consumes whatever extra values the rejection loops
// need, and keeps the schedule it drew.
func (rc *Recorder) Skip(sp *Sampler, rng *rand.Rand, r *Record) {
	w, swapN := r.words[:sp.nraw], sp.swapN[:sp.nraw]
	bad := false
	for k := range w {
		v := uint32(rng.Int63() >> 31)
		w[k] = v
		// The threshold applies to the swap words too, where it only
		// flags more. uint32(prod) < n is shuffleDims' precondition
		// for a rejection, the product's low word is v*n mod 2³², and
		// it never holds for a pick word's n of 0.
		if n := uint32(swapN[k]); v > sp.wordMax || v*n < n {
			bad = true
		}
	}
	r.exact = bad
	if !bad {
		return
	}
	if r.s == nil {
		r.s = new(Schedule)
	}
	rc.replay(sp, w, rng, r.s)
}

// Decode writes the schedule r recorded into s, overwriting every
// field: exactly what sp.RandomTo drew when Skip filled r. r must have
// been filled by sp, unchanged since.
func (rc *Recorder) Decode(sp *Sampler, r *Record, s *Schedule) {
	if r.exact {
		*s = *r.s
		return
	}
	rc.replay(sp, r.words[:sp.nraw], nil, s)
}

// replay runs sp.RandomTo over the recorded words, then over live.
func (rc *Recorder) replay(sp *Sampler, words []uint32, live *rand.Rand, s *Schedule) {
	rc.src.words, rc.src.live = words, live
	sp.RandomTo(rc.rng, s)
	if len(rc.src.words) != 0 {
		panic("sched: a recorded draw left recorded values unread")
	}
	rc.src.live = nil
}

// replay is a rand.Source that returns recorded words, as the Int63
// values they were cut from, and then the live generator's values. A
// word keeps bits 31–62 of its value, every bit intn and shuffleDims
// read, so the replayed draw is the one the live values made.
type replay struct {
	words []uint32
	live  *rand.Rand // nil when the words are the whole draw
}

func (p *replay) Int63() int64 {
	if len(p.words) == 0 {
		if p.live == nil {
			panic("sched: a recorded draw read past its recorded values")
		}
		return p.live.Int63()
	}
	v := int64(p.words[0]) << 31
	p.words = p.words[1:]
	return v
}

func (p *replay) Seed(int64) {}
