package workloads

import (
	"math"
	"testing"

	"fdt/internal/machine"
)

// The stencils wrap their edges with compares instead of integer
// modulo. Verify cannot catch a divergence, because it builds its
// reference with the same functions, so these tests compare them bit
// for bit against the modulo formulation they replaced, kept here.

// refAt is the modulo wrap sconv's passes used.
func refAt(x, y, s int) int {
	x, y = (x+s)%s, (y+s)%s
	return y*s + x
}

// refIdx3 is the modulo wrap mg's grid accesses used.
func refIdx3(x, y, z, d int) int {
	x, y, z = (x+d)%d, (y+d)%d, (z+d)%d
	return (x*d+y)*d + z
}

func TestSConvPassesMatchModuloReference(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig().WithCores(8))
	for _, p := range []SConvParams{
		DefaultSConvParams(),
		{Size: 16, Radius: 8, Frames: 1, TapInstr: 2}, // every pixel's window wraps
		{Size: 8, Radius: 8, Frames: 1, TapInstr: 2},  // windows span the whole edge
		{Size: 13, Radius: 3, Frames: 1, TapInstr: 2},
		{Size: 5, Radius: 0, Frames: 1, TapInstr: 2},
	} {
		w := NewSConv(m, p)
		s, r := p.Size, p.Radius
		refTmp := make([]float32, s*s)
		refOut := make([]float32, s*s)
		for y := 0; y < s; y++ {
			for x := 0; x < s; x++ {
				var acc float32
				for k := -r; k <= r; k++ {
					acc += w.kernelTaps[k+r] * w.img[refAt(x+k, y, s)]
				}
				refTmp[y*s+x] = acc
			}
		}
		for x := 0; x < s; x++ {
			for y := 0; y < s; y++ {
				var acc float32
				for k := -r; k <= r; k++ {
					acc += w.kernelTaps[k+r] * refTmp[refAt(x, y+k, s)]
				}
				refOut[y*s+x] = acc
			}
		}
		// Run the passes slab by slab, as the kernel does.
		for slab := 0; slab < sconvSlabs; slab++ {
			lo, hi := slabRange(slab, sconvSlabs, s)
			w.rowPass(lo, hi)
		}
		for slab := 0; slab < sconvSlabs; slab++ {
			lo, hi := slabRange(slab, sconvSlabs, s)
			w.colPass(lo, hi)
		}
		for i := range refOut {
			if math.Float32bits(w.tmp[i]) != math.Float32bits(refTmp[i]) {
				t.Fatalf("%+v: row pass pixel %d = %v, reference %v", p, i, w.tmp[i], refTmp[i])
			}
			if math.Float32bits(w.out[i]) != math.Float32bits(refOut[i]) {
				t.Fatalf("%+v: column pass pixel %d = %v, reference %v", p, i, w.out[i], refOut[i])
			}
		}
	}
}

func TestSConvRejectsRadiusBeyondSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSConv accepted Radius > Size")
		}
	}()
	NewSConv(machine.MustNew(machine.DefaultConfig().WithCores(8)), SConvParams{Size: 4, Radius: 5, Frames: 1})
}

func TestMGStencilsMatchModuloReference(t *testing.T) {
	for _, d := range []int{DefaultMGParams().Dim, 6, 4, 2} {
		dc := d / 2
		nf, nc := d*d*d, dc*dc*dc
		r := newRNG(uint64(d))
		field := func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = r.float64()
			}
			return v
		}
		fine, coarse := field(nf), field(nc)

		// slabs covers [0, n) in uneven pieces that start and end
		// mid-row, so every coordinate carry path runs.
		slabs := func(n int, fn func(lo, hi int)) {
			for lo := 0; lo < n; {
				hi := min(lo+1+lo%7, n)
				fn(lo, hi)
				lo = hi
			}
		}
		same := func(what string, got, want []float64) {
			t.Helper()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("d=%d %s: point %d = %v, reference %v", d, what, i, got[i], want[i])
				}
			}
		}

		refSmooth := func(src []float64, e int) []float64 {
			dst := make([]float64, len(src))
			for c := range dst {
				x, y, z := c/(e*e), c/e%e, c%e
				sum := src[refIdx3(x-1, y, z, e)] + src[refIdx3(x+1, y, z, e)] +
					src[refIdx3(x, y-1, z, e)] + src[refIdx3(x, y+1, z, e)] +
					src[refIdx3(x, y, z-1, e)] + src[refIdx3(x, y, z+1, e)]
				dst[c] = 0.5*src[c] + sum/12
			}
			return dst
		}
		got := make([]float64, nf)
		slabs(nf, func(lo, hi int) { smooth(fine, got, d, lo, hi) })
		same("smooth fine", got, refSmooth(fine, d))
		got = make([]float64, nc)
		slabs(nc, func(lo, hi int) { smooth(coarse, got, dc, lo, hi) })
		same("smooth coarse", got, refSmooth(coarse, dc))

		want := make([]float64, nc)
		for c := range want {
			x, y, z := c/(dc*dc), c/dc%dc, c%dc
			sum := 0.0
			for ox := 0; ox < 2; ox++ {
				for oy := 0; oy < 2; oy++ {
					for oz := 0; oz < 2; oz++ {
						sum += fine[refIdx3(2*x+ox, 2*y+oy, 2*z+oz, d)]
					}
				}
			}
			want[c] = sum / 8
		}
		got = make([]float64, nc)
		slabs(nc, func(lo, hi int) { restrict(fine, got, d, lo, hi) })
		same("restrict", got, want)

		want = append([]float64(nil), fine...)
		for c := range want {
			x, y, z := c/(d*d), c/d%d, c%d
			want[c] = 0.75*want[c] + 0.25*coarse[refIdx3(x/2, y/2, z/2, dc)]
		}
		got = append([]float64(nil), fine...)
		slabs(nf, func(lo, hi int) { prolongate(got, coarse, d, lo, hi) })
		same("prolongate", got, want)
	}
}
