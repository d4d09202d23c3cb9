package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// blockBounds splits consecutive samples into blocks whose durations sum
// to at least span, returning [lo, hi) index pairs. A short trailing block
// joins its predecessor.
func blockBounds(durs []float64, span float64) [][2]int {
	var out [][2]int
	lo, acc := 0, 0.0
	for i, d := range durs {
		acc += d
		if acc >= span {
			out = append(out, [2]int{lo, i + 1})
			lo, acc = i+1, 0
		}
	}
	if lo < len(durs) {
		if len(out) == 0 {
			out = append(out, [2]int{lo, len(durs)})
		} else {
			out[len(out)-1][1] = len(durs)
		}
	}
	return out
}

// checkReputations verifies a published reputation vector: every entry
// finite and non-negative, and the vector summing to 1 within 1e-9.
func checkReputations(reps []float64) error {
	total := 0.0
	for i, v := range reps {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("reputation of node %d is %v", i, v)
		}
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		return fmt.Errorf("reputations sum to %.15f, want 1", total)
	}
	return nil
}

// digest is a short hash of a reputation vector's exact bits.
func digest(reps []float64) string {
	b := make([]byte, 0, 8*len(reps))
	for _, v := range reps {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return shortHash(b)
}

// shortHash is the first 16 hex digits of b's SHA-256.
func shortHash(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])[:16]
}

// colluderRatio is the paper's measure of collusion success: mean colluder
// reputation over mean normal (neither colluder nor pretrusted) reputation.
func colluderRatio(wd *world, reps []float64) float64 {
	var coll, norm float64
	var nColl, nNorm int
	for i, v := range reps {
		switch {
		case wd.colluder[i]:
			coll += v
			nColl++
		case i >= len(wd.pretrusted):
			norm += v
			nNorm++
		}
	}
	if nColl == 0 || norm == 0 {
		return math.NaN()
	}
	return (coll / float64(nColl)) / (norm / float64(nNorm))
}
