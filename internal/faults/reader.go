package faults

import (
	"bytes"
	"io"

	"blackforest/internal/stats"
)

// Reader wraps an io.Reader and deterministically injects the two bundle
// corruption modes chaos tests need: flipped bytes (CorruptReads, one
// independent draw per 4KiB chunk) and early EOF (TruncateReads, one
// draw per stream choosing a cut offset inside the stream). Decisions are
// keyed on the stream identity, so the same (seed, identity) always
// damages the same offsets regardless of the caller's read sizes.
type Reader struct {
	r        io.Reader
	in       *Injector
	identity uint64

	off     int64  // bytes consumed so far
	cutAt   int64  // byte offset to truncate at; -1 = never
	cutDraw uint64 // truncation draw, turned into cutAt on the first Read
	cutSet  bool   // cutAt is final

	curChunk   int64 // chunk the cached decision is for; -1 = none yet
	flipTarget int64 // absolute offset to flip in curChunk; -1 = none
}

const corruptChunk = 4096

// truncWindow bounds the truncation offset: a stream is cut somewhere in
// its first truncWindow bytes, or anywhere inside it when it is shorter.
const truncWindow = 64 << 10

// WrapReader returns r with the injector's CorruptReads/TruncateReads
// profile applied. A nil injector (or a profile with both modes at zero)
// returns r unchanged, so the wrap is free when those faults are off.
func (in *Injector) WrapReader(r io.Reader, identity uint64) io.Reader {
	if in == nil || (in.cfg.CorruptReads <= 0 && in.cfg.TruncateReads <= 0) {
		return r
	}
	fr := &Reader{r: r, in: in, identity: identity, cutAt: -1, cutSet: true, curChunk: -1, flipTarget: -1}
	if in.decide(domainTruncate, identity, in.cfg.TruncateReads) {
		// The draw is keyed so the cut is reproducible; the offset is
		// fixed once the first Read has seen how long the stream is.
		fr.cutDraw = stats.SplitMix64(domainTruncate ^ stats.SplitMix64(identity^stats.SplitMix64(in.cfg.Seed^0x7472756e)))
		fr.cutSet = false
	}
	return fr
}

// setCut reads up to truncWindow bytes ahead and fixes the cut offset
// inside what it read, so every truncated stream is cut before its end
// however short it is, and a consumer that stops at the end of a complete
// value (a JSON decoder) still sees the damage.
func (fr *Reader) setCut() error {
	fr.cutSet = true
	head, err := io.ReadAll(io.LimitReader(fr.r, truncWindow))
	if err != nil {
		return err
	}
	fr.cutAt = int64(fr.cutDraw % uint64(max(len(head), 1)))
	fr.r = io.MultiReader(bytes.NewReader(head), fr.r)
	return nil
}

// chunkFlipTarget returns the absolute offset to corrupt within chunk c,
// or -1 when the chunk's draw misses.
func (fr *Reader) chunkFlipTarget(c int64) int64 {
	if c != fr.curChunk {
		fr.curChunk = c
		fr.flipTarget = -1
		if fr.in.decide(domainCorrupt, mix(fr.identity, uint64(c)+1), fr.in.cfg.CorruptReads) {
			u := stats.SplitMix64(mix(fr.identity, uint64(c)+1) ^ stats.SplitMix64(fr.in.cfg.Seed^0x636f7272))
			fr.flipTarget = c*corruptChunk + int64(u%corruptChunk)
		}
	}
	return fr.flipTarget
}

func (fr *Reader) Read(p []byte) (int, error) {
	if !fr.cutSet {
		if err := fr.setCut(); err != nil {
			return 0, err
		}
	}
	if fr.cutAt >= 0 && fr.off >= fr.cutAt {
		return 0, io.ErrUnexpectedEOF
	}
	if fr.cutAt >= 0 && int64(len(p)) > fr.cutAt-fr.off {
		p = p[:fr.cutAt-fr.off]
	}
	n, err := fr.r.Read(p)
	for i := 0; i < n; i++ {
		o := fr.off + int64(i)
		if fr.chunkFlipTarget(o/corruptChunk) == o {
			p[i] ^= 0xff
		}
	}
	fr.off += int64(n)
	return n, err
}
