package main

import (
	"crypto/rand"
	"time"

	"repchain/internal/crypto"
)

// calibration is the host's speed at the primitives the protocol
// spends its CPU on, measured through repchain/internal/crypto at the
// start of every run so host drift shows beside the results.
type calibration struct {
	verifyUS, signUS, sha256NS float64
}

// calibrate times Ed25519 sign and verify and SHA-256 over 64 bytes.
// Each figure is the fastest of five batches, the least disturbed by
// other work on the host.
func calibrate() calibration {
	pub, priv, err := crypto.GenerateKey(rand.Reader)
	if err != nil {
		panic(err) // crypto/rand failing leaves nothing to measure
	}
	msg := make([]byte, 64)
	sig := priv.Sign(msg)
	best := func(n int, f func()) float64 {
		b := time.Duration(1 << 62)
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			for i := 0; i < n; i++ {
				f()
			}
			if d := time.Since(start); d < b {
				b = d
			}
		}
		return float64(b.Nanoseconds()) / float64(n)
	}
	var sink crypto.Hash
	c := calibration{
		signUS: best(200, func() { sig = priv.Sign(msg) }) / 1e3,
		verifyUS: best(200, func() {
			if pub.Verify(msg, sig) != nil {
				panic("calibration signature does not verify")
			}
		}) / 1e3,
		sha256NS: best(20000, func() { sink = crypto.Sum(msg); msg[0] = sink[0] }),
	}
	return c
}
