package rcc

import (
	"fmt"
	"math/bits"
	"testing"

	"instameasure/internal/flowhash"
)

// refLocate is the division-based Locate the mask/shift version replaced,
// frozen verbatim as the bit-identity reference: span = h % nSpans, word =
// span / spansPerWord, base = (span % spansPerWord)·spanBits, and every
// draw reduced with s % spanBits.
func refLocate(cfg Config, nWords int, h uint64, loc *Location) {
	spansPerWord := uint64(wordBits / cfg.WordBits)
	nSpans := uint64(nWords) * spansPerWord
	spanBits := uint(cfg.WordBits)

	span := h % nSpans
	loc.Word = int(span / spansPerWord)
	base := uint(span%spansPerWord) * spanBits
	loc.N = cfg.VectorBits
	loc.Mask = 0

	spanMask := (^uint64(0) >> (wordBits - spanBits)) << base
	s := flowhash.Mix64(h ^ (cfg.Seed + 0x9E3779B97F4A7C15))
	for i := 0; i < loc.N; i++ {
		var pos uint
		for tries := 0; ; tries++ {
			s = flowhash.Mix64(s)
			pos = base + uint(s%uint64(spanBits))
			if loc.Mask&(1<<pos) == 0 {
				break
			}
			if tries == 8 {
				free := spanMask &^ loc.Mask
				k := int(s % uint64(bits.OnesCount64(free)))
				pos = uint(selectBit(free, k))
				break
			}
		}
		loc.Pos[i] = uint8(pos)
		loc.Mask |= 1 << pos
	}
}

// TestLocateMatchesReference pins Locate to the division-based reference
// over 2^20 pseudo-random hashes spread across both confinement word
// sizes, sparse and dense vectors (v ≥ 31 exercises the selectBit
// fallback), and a power-of-two pool (mask reduction) beside a 1000-byte
// one (125 words: the % fallback).
func TestLocateMatchesReference(t *testing.T) {
	type shape struct{ word, v, mem int }
	var shapes []shape
	for _, word := range []int{64, 32} {
		for _, v := range []int{2, 8, 31, 60, 64} {
			if v > word {
				continue
			}
			for _, mem := range []int{32 << 10, 1000} {
				shapes = append(shapes, shape{word, v, mem})
			}
		}
	}
	const total = 1 << 20
	per := (total + len(shapes) - 1) / len(shapes)
	rng := flowhash.NewRand(42)
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("w%d_v%d_mem%d", sh.word, sh.v, sh.mem), func(t *testing.T) {
			c := MustNew(Config{MemoryBytes: sh.mem, WordBits: sh.word, VectorBits: sh.v, Seed: rng.Next()})
			if want := sh.mem&(sh.mem-1) == 0; c.spanPow2 != want {
				t.Fatalf("spanPow2 = %v, want %v", c.spanPow2, want)
			}
			var got, want Location
			for i := 0; i < per; i++ {
				h := rng.Next()
				c.Locate(h, &got)
				refLocate(c.cfg, c.Words(), h, &want)
				if got != want {
					t.Fatalf("hash %#x: Locate = {word %d mask %#x}, reference {word %d mask %#x}",
						h, got.Word, got.Mask, want.Word, want.Mask)
				}
			}
		})
	}
}
