//go:build race

package serve_test

// raceBuild reports a -race build, whose sync.Pool drops some of the
// items put back to shake out reuse bugs.
const raceBuild = true
