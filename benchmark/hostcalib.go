package main

import (
	"crypto/aes"
	"crypto/cipher"
	"time"
)

// hostCalib times a fixed AES-GCM + memmove loop: work that no change
// to this repository can make faster or slower, so that two traced
// runs on hosts of different speed (or one host on different days) can
// be told apart from two versions of the code. It returns nanoseconds
// per iteration, the quietest of several slices.
func hostCalib() float64 {
	key := make([]byte, 32)
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err) // a 32-byte key is always valid
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		panic(err) // AES blocks are always 16 bytes
	}
	nonce := make([]byte, gcm.NonceSize())
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	sealed := make([]byte, 0, 128)
	const iters = 20_000
	var slices []float64
	for s := 0; s < 8; s++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			sealed = gcm.Seal(sealed[:0], nonce, src[:64], nil)
			copy(dst, src)
			src[0] = sealed[0]
		}
		slices = append(slices, float64(time.Since(start))/iters)
	}
	v, _ := quiet(slices)
	return v
}
