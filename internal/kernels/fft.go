package kernels

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
)

// Radix-2 FFT — one of the "exotic" student projects the paper lists
// ("FFT optimizations"). The iterative in-place Cooley-Tukey transform is
// the optimization target; the O(n^2) DFT is the correctness reference.

// ErrNotPowerOfTwo is returned for inputs whose length is not a power of 2.
var ErrNotPowerOfTwo = errors.New("kernels: FFT length must be a power of two")

// FFTFLOPs returns the classical 5*n*log2(n) operation count of a radix-2
// complex FFT.
func FFTFLOPs(n int) float64 {
	if n < 2 {
		return 0
	}
	return 5 * float64(n) * math.Log2(float64(n))
}

// DFT computes the discrete Fourier transform directly in O(n^2);
// it is the reference implementation FFT variants are validated against.
func DFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	DFTInto(out, x)
	return out
}

// DFTInto is DFT writing the transform into out, which must have x's
// length and must not overlap it.
func DFTInto(out, x []complex128) {
	n := len(x)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
}

// FFT computes the forward transform of x in place using the iterative
// radix-2 Cooley-Tukey algorithm with bit-reversal permutation.
func FFT(x []complex128) error { return fft(x, false) }

// IFFT computes the inverse transform of x in place (normalized by 1/n).
func IFFT(x []complex128) error {
	if err := fft(x, true); err != nil {
		return err
	}
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
	return nil
}

func fft(x []complex128, inverse bool) error {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		return ErrNotPowerOfTwo
	}
	// Bit-reversal permutation.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
		mask := n >> 1
		for ; j&mask != 0; mask >>= 1 {
			j &^= mask
		}
		j |= mask
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wBase := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				even := x[start+k]
				odd := x[start+k+half] * w
				x[start+k] = even + odd
				x[start+k+half] = even - odd
				w *= wBase
			}
		}
	}
	return nil
}

// RandomComplex returns n deterministic complex samples with components in
// [-1, 1).
func RandomComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return out
}

// MaxComplexDiff returns the largest |a[i]-b[i]|; +Inf on length mismatch.
func MaxComplexDiff(a, b []complex128) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var max float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}
