package server

import (
	"math"
	"slices"
)

// blockLen is the number of samples in one block of a column. Sixteen
// samples are 128 bytes, so a sample at any t allocates at most that
// much, and the bench's 80-sample phases fill five blocks exactly. A
// wider block wastes more of a short phase's tail; a narrower one
// spends more directory per sample.
const blockLen = 16

// chunkBlocks is the number of blocks in one slab chunk (16 KiB): the
// most a store holds carved but unused.
const chunkBlocks = 128

type block = [blockLen]float64

// slab hands out NaN-filled blocks, carved in order from chunks of
// chunkBlocks blocks, and never takes one back: a column keeps its
// blocks for the life of its store. A block is named by its slot, the
// carving order. The chunks hold no pointers, so the collector does not
// scan them, and a store's whole sample volume is a few dozen objects.
// Its owner's mutex guards it.
type slab struct {
	chunks []*[chunkBlocks]block
	n      int32 // blocks carved
}

func (s *slab) block(slot int32) *block {
	return &s.chunks[slot/chunkBlocks][slot%chunkBlocks]
}

// carve returns the slot of a fresh all-NaN block.
func (s *slab) carve() int32 {
	slot := s.n
	if slot%chunkBlocks == 0 {
		s.chunks = append(s.chunks, new([chunkBlocks]block))
	}
	s.n++
	b := s.block(slot)
	for i := range b {
		b[i] = math.NaN()
	}
	return slot
}

// blockRef places block number blk of a column (samples
// blk*blockLen ... blk*blockLen+blockLen-1) at a slab slot.
type blockRef struct {
	blk, slot int32
}

// maxDirHint caps a dirHint, so one long series cannot make every new
// column of its kind start with a large directory: 64 entries are
// 1 024 samples and 512 bytes.
const maxDirHint = 64

// dirHint is the capacity a new column's first directory takes: the
// most entries any column of its kind has held (a machine store keeps
// one per phase, the environment store one), at least 1 and at most
// maxDirHint. It counts entries, not block numbers, so a sample at a
// far t raises it by one at most. Its owner's mutex guards it.
type dirHint int32

func (h *dirHint) note(entries int) { *h = max(*h, dirHint(min(entries, maxDirHint))) }

// column is one sample series — of a (job, phase, sensor) or of an
// environment sensor — set at index t with NaN holes, which is what
// makes replayed batches idempotent: the retry story after a 429 needs
// no dedup state. It reads exactly as a []float64 of length n padded
// with NaN would, but only the blocks a sample landed in exist: an
// absent block reads as NaN, so a lone sample at a far t costs one
// block, not t NaNs. The directory is sorted by block number; in-order
// traffic only ever touches its last entry.
type column struct {
	dir []blockRef
	n   int32 // highest t written + 1
}

// set writes one sample and reports whether the position previously
// held NaN (a fresh observation rather than an idempotent overwrite)
// and whether the stored value changed at all. s is the slab of the
// store that owns the column, h the directory hint of its kind.
func (c *column) set(s *slab, h *dirHint, t int, v float64) (fresh, changed bool) {
	b := s.block(c.slot(s, h, int32(t/blockLen)))
	p := &b[t%blockLen]
	fresh = math.IsNaN(*p)
	changed = fresh || *p != v
	*p = v
	if int32(t) >= c.n {
		c.n = int32(t) + 1
	}
	return fresh, changed
}

// slot returns the slab slot of block blk, carving it on first touch.
// A new directory is sized once, to the hint.
func (c *column) slot(s *slab, h *dirHint, blk int32) int32 {
	if last := len(c.dir) - 1; last >= 0 && c.dir[last].blk == blk {
		return c.dir[last].slot
	}
	i, found := slices.BinarySearchFunc(c.dir, blk, func(r blockRef, blk int32) int { return int(r.blk - blk) })
	if found {
		return c.dir[i].slot
	}
	slot := s.carve()
	if c.dir == nil {
		c.dir = make([]blockRef, 0, max(1, int(*h)))
	}
	c.dir = slices.Insert(c.dir, i, blockRef{blk, slot})
	h.note(len(c.dir))
	return slot
}

// fill writes the column's first len(dst) samples into dst, NaN where
// none was written — past n too.
func (c *column) fill(s *slab, dst []float64) {
	next := 0
	for _, r := range c.dir {
		start := int(r.blk) * blockLen
		if start >= len(dst) {
			break
		}
		fillNaN(dst[next:start])
		next = start + copy(dst[start:], s.block(r.slot)[:])
	}
	fillNaN(dst[next:])
}

// blockBytes is a block's size in a snapshot: its number and samples.
const blockBytes = 4 + blockLen*8

// appendTo writes the column as a snapshot holds it: n, then each block
// a sample landed in, with its number. s is the owning store's slab.
func (c *column) appendTo(b []byte, s *slab) []byte {
	b = appendU32(appendU32(b, int(c.n)), len(c.dir))
	for _, r := range c.dir {
		b = appendF64(appendU32(b, int(r.blk)), s.block(r.slot)[:]...)
	}
	return b
}

// column reads what appendTo wrote into a fresh column, carving its
// blocks from s, sizing its directory once and noting it in h. It
// refuses a length past the t range and blocks no set below n could
// have made: numbers not ascending, or a last block not holding sample
// n-1.
func (d *snapDecoder) column(c *column, s *slab, h *dirHint) {
	n := d.u32()
	if n > maxSampleIndex {
		d.fail("column of %d samples, the t range holds %d", n, maxSampleIndex)
	}
	c.n, c.dir = int32(n), make([]blockRef, d.count(int(n+blockLen-1)/blockLen, blockBytes, "blocks"))
	for i := range c.dir {
		c.dir[i] = blockRef{int32(d.u32()), s.carve()}
		if i > 0 && uint32(c.dir[i].blk) <= uint32(c.dir[i-1].blk) {
			d.fail("column blocks not ascending")
		}
		b := s.block(c.dir[i].slot)
		for j := range b {
			b[j] = d.f64()
		}
	}
	if last := len(c.dir) - 1; n > 0 && (last < 0 || uint32(c.dir[last].blk) != (n-1)/blockLen) {
		d.fail("column of %d samples does not end in the block of its last sample", n)
	}
	h.note(len(c.dir))
}

func fillNaN(dst []float64) {
	for i := range dst {
		dst[i] = math.NaN()
	}
}
