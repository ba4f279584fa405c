// Package kernels implements the paper's evaluation workloads: all 15
// PolyBench/GPU benchmarks (Table 2) plus the irregular bfs of §6.6. Each
// benchmark provides a deterministic input image with serial reference
// outputs, manycore program builders for every Table 3 mapping style, and a
// wavefront trace for the GPU model.
package kernels

import (
	"fmt"
	"math"
	"math/rand"

	"rockcress/internal/mem"
)

// arrayAlign keeps every array long-line aligned so the same image works
// under 64-byte and 1024-byte cache lines.
const arrayAlign = 1024

// imageBase leaves the bottom of the address space unused to catch stray
// null-ish addresses.
const imageBase = 0x2000

// Array is one named region of the global-memory image.
type Array struct {
	Name string
	Addr uint32
	Len  int      // words
	Init []uint32 // initial contents; nil = zeros
	Want []uint32 // expected final contents; nil = unchecked
	Tol  float64  // relative FP tolerance for checking; 0 = exact bits
}

// At returns the byte address of word i.
func (a *Array) At(i int) uint32 {
	if i < 0 || i >= a.Len {
		panic(fmt.Sprintf("internal/kernels: invariant: %s[%d] out of %d", a.Name, i, a.Len))
	}
	return a.Addr + uint32(4*i)
}

// Image is a benchmark's memory layout plus expected results. Construction
// mistakes (duplicate or empty arrays, mismatched expectations) latch an
// error surfaced by Err rather than panicking out of a benchmark generator.
type Image struct {
	arrays []*Array
	byName map[string]*Array
	next   uint32
	err    error
}

// NewImage starts an empty image.
func NewImage() *Image {
	return &Image{byName: map[string]*Array{}, next: imageBase}
}

// Err returns the first image-construction error, if any.
func (im *Image) Err() error { return im.err }

func (im *Image) fail(format string, args ...any) {
	if im.err == nil {
		im.err = fmt.Errorf("kernels: %s", fmt.Sprintf(format, args...))
	}
}

// alloc reserves words at the next aligned address.
func (im *Image) alloc(name string, words int) *Array {
	if prev, dup := im.byName[name]; dup {
		im.fail("duplicate array %q", name)
		return prev
	}
	if words <= 0 {
		im.fail("array %q with %d words", name, words)
		words = 1
	}
	a := &Array{Name: name, Addr: im.next, Len: words}
	im.next += uint32(4 * words)
	im.next = (im.next + arrayAlign - 1) &^ uint32(arrayAlign-1)
	im.arrays = append(im.arrays, a)
	im.byName[name] = a
	return a
}

// AllocF allocates an array initialized from float32 values.
func (im *Image) AllocF(name string, vals []float32) *Array {
	a := im.alloc(name, len(vals))
	a.Init = make([]uint32, len(vals))
	for i, v := range vals {
		a.Init[i] = math.Float32bits(v)
	}
	return a
}

// AllocW allocates an array initialized from raw words.
func (im *Image) AllocW(name string, vals []uint32) *Array {
	a := im.alloc(name, len(vals))
	a.Init = append([]uint32(nil), vals...)
	return a
}

// AllocZero allocates a zeroed array.
func (im *Image) AllocZero(name string, words int) *Array {
	return im.alloc(name, words)
}

// Arr returns the named array.
func (im *Image) Arr(name string) *Array {
	a, ok := im.byName[name]
	if !ok {
		panic(fmt.Sprintf("internal/kernels: invariant: unknown array %q", name))
	}
	return a
}

// Arrays lists the image's arrays in allocation order.
func (im *Image) Arrays() []*Array { return im.arrays }

// SizeBytes returns the high-water byte address the image needs.
func (im *Image) SizeBytes() int { return int(im.next) }

// ExpectF records the expected float contents of an array with a relative
// tolerance (PolyBench/GPU-style correctness thresholds).
func (im *Image) ExpectF(name string, want []float32, tol float64) {
	a := im.Arr(name)
	if len(want) != a.Len {
		im.fail("expect %s: %d words, array has %d", name, len(want), a.Len)
		return
	}
	a.Want = make([]uint32, len(want))
	for i, v := range want {
		a.Want[i] = math.Float32bits(v)
	}
	a.Tol = tol
}

// ExpectW records exact expected words.
func (im *Image) ExpectW(name string, want []uint32) {
	a := im.Arr(name)
	if len(want) != a.Len {
		im.fail("expect %s: %d words, array has %d", name, len(want), a.Len)
		return
	}
	a.Want = append([]uint32(nil), want...)
}

// Apply writes every array's initial contents into the global store.
func (im *Image) Apply(g *mem.Global) {
	for _, a := range im.arrays {
		for i := 0; i < a.Len; i++ {
			var v uint32
			if a.Init != nil {
				v = a.Init[i]
			}
			g.WriteWord(a.At(i), v)
		}
	}
}

// Check compares the global store against every array's expectations.
func (im *Image) Check(g *mem.Global) error {
	for _, a := range im.arrays {
		if a.Want == nil {
			continue
		}
		for i := 0; i < a.Len; i++ {
			got := g.ReadWord(a.At(i))
			want := a.Want[i]
			if got == want {
				continue
			}
			if a.Tol > 0 {
				gf := float64(math.Float32frombits(got))
				wf := float64(math.Float32frombits(want))
				diff := math.Abs(gf - wf)
				if diff <= a.Tol*math.Max(math.Abs(wf), 1) {
					continue
				}
				return fmt.Errorf("%s[%d]: got %g, want %g (tol %g)", a.Name, i,
					gf, wf, a.Tol)
			}
			return fmt.Errorf("%s[%d]: got %#x, want %#x", a.Name, i, got, want)
		}
	}
	return nil
}

// rng returns the deterministic generator benchmarks draw inputs from.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// randF fills n float32 values in (lo, hi).
func randF(r *rand.Rand, n int, lo, hi float32) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = lo + (hi-lo)*r.Float32()
	}
	return out
}
