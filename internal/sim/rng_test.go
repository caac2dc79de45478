package sim

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
)

// RNG draws IntN, Float64 and Shuffle straight from its
// concrete *rand.PCG with local copies of math/rand/v2's reductions.
// These tests pin those copies draw for draw against *rand.Rand itself:
// twin streams from one seed, one driven only through rand.Rand
// methods, the other through RNG, interleaved with the draws that still
// go through rand.Rand inside RNG (NormFloat64, ExpTime, Uint64).

// rngBounds are the IntN arguments the programs draw from: 1, powers of
// two, 3, the 32-bit boundary, the largest int, and 2^62+1, whose
// rejection zone (2^64 mod n = 2^62-3) turns away about a quarter of
// the candidates.
var rngBounds = []int{
	1, 2, 4, 1 << 20, 1 << 62, 3, 10, 1000,
	1<<31 - 1, 1 << 31, 1<<31 + 1, math.MaxInt64, 1<<62 + 1,
}

// rngTwin is one seed's pair of streams.
type rngTwin struct {
	src *rand.PCG
	ref *rand.Rand
	got *RNG
}

func newRNGTwin(seed uint64) *rngTwin {
	src := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return &rngTwin{src: src, ref: rand.New(src), got: NewRNG(seed)}
}

// samePosition compares the generators' full state.
func (tw *rngTwin) samePosition(t *testing.T, after string) {
	t.Helper()
	want, err := tw.src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := tw.got.src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("stream position diverged after %s", after)
	}
}

// step runs one draw, selected by op with argument arg, on both streams
// and returns how many values it compared.
func (tw *rngTwin) step(t *testing.T, op, arg byte) int {
	t.Helper()
	switch op % 8 {
	case 0, 1: // IntN, twice as often as the rest
		n := rngBounds[int(arg)%len(rngBounds)]
		if want, got := tw.ref.IntN(n), tw.got.IntN(n); want != got {
			t.Fatalf("IntN(%d) = %d, rand.Rand gives %d", n, got, want)
		}
	case 2:
		if want, got := tw.ref.Float64(), tw.got.Float64(); want != got {
			t.Fatalf("Float64 = %v, rand.Rand gives %v", got, want)
		}
	case 3:
		// Shuffling a slice in place sends element perm[m] to m, for
		// the permutation rand.Rand.Perm draws.
		n := int(arg) % 70
		perm := tw.ref.Perm(n)
		got := make([]int, n)
		for i := range got {
			got[i] = 1000 + 7*i
		}
		Shuffle(tw.got, got)
		for m := range perm {
			if want := 1000 + 7*perm[m]; got[m] != want {
				t.Fatalf("Shuffle(%d)[%d] = %d, rand.Rand.Perm indexing gives %d", n, m, got[m], want)
			}
		}
		return n
	case 4:
		n := int(arg) % 70
		want, got := make([]byte, n), make([]byte, n)
		for i := range want {
			want[i], got[i] = byte(i), byte(i)
		}
		tw.ref.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
		Shuffle(tw.got, got)
		if !bytes.Equal(want, got) {
			t.Fatalf("Shuffle(%d) = %v, rand.Rand.Shuffle gives %v", n, got, want)
		}
		return n
	case 5:
		if want, got := tw.ref.NormFloat64(), tw.got.NormFloat64(); want != got {
			t.Fatalf("NormFloat64 = %v, rand.Rand gives %v", got, want)
		}
	case 6:
		mean := Time(arg) + 1
		want := Time(math.Round(tw.ref.ExpFloat64() * float64(mean)))
		if got := tw.got.ExpTime(mean); want != got {
			t.Fatalf("ExpTime(%d) = %d, rand.Rand gives %d", mean, got, want)
		}
	case 7:
		if want, got := tw.ref.Uint64(), tw.got.Uint64(); want != got {
			t.Fatalf("Uint64 = %d, rand.Rand gives %d", got, want)
		}
	}
	return 1
}

// run executes a byte program: (op, arg) pairs.
func (tw *rngTwin) run(t *testing.T, prog []byte) int {
	t.Helper()
	draws := 0
	for k := 0; k+1 < len(prog); k += 2 {
		draws += tw.step(t, prog[k], prog[k+1])
	}
	tw.samePosition(t, "the program")
	return draws
}

func TestRNGFastPathMatchesRand(t *testing.T) {
	// The program itself comes from a third, unrelated stream.
	script := rand.New(rand.NewPCG(1, 2))
	prog := make([]byte, 1<<16)
	draws := 0
	for seed := uint64(0); draws < 1_000_000; seed++ {
		for i := range prog {
			prog[i] = byte(script.Uint32())
		}
		draws += newRNGTwin(seed*0x9e3779b97f4a7c15).run(t, prog)
	}

	// Every bound on its own, so a failure names it, and long enough
	// that the rejection loop of the 2^62+1 bound must have run: the
	// stream then sits further along than one draw per call.
	for _, n := range rngBounds {
		tw := newRNGTwin(uint64(n))
		const calls = 4096
		for i := 0; i < calls; i++ {
			if want, got := tw.ref.IntN(n), tw.got.IntN(n); want != got {
				t.Fatalf("IntN(%d) call %d = %d, rand.Rand gives %d", n, i, got, want)
			}
		}
		tw.samePosition(t, "IntN only")
		if n == 1<<62+1 {
			plain := NewRNG(uint64(n))
			for i := 0; i < calls; i++ {
				plain.Uint64()
			}
			if plain.Uint64() == tw.got.Uint64() {
				t.Fatalf("IntN(%d) never rejected a candidate in %d calls", n, calls)
			}
		}
	}
}

// FuzzRNGFastPath drives the twin streams with arbitrary programs.
func FuzzRNGFastPath(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(7), []byte{0, 12, 0, 12, 3, 69, 5, 0, 0, 9, 4, 33, 6, 200, 2, 0, 7, 0, 1, 11})
	f.Add(uint64(1<<63), []byte{3, 1, 3, 2, 4, 0, 4, 1, 0, 0, 0, 4, 0, 8, 0, 10})
	f.Fuzz(func(t *testing.T, seed uint64, prog []byte) {
		newRNGTwin(seed).run(t, prog)
	})
}
