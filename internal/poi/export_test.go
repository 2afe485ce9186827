package poi

import "testing"

// Decoded reports whether the corpus holds decoded records; a corpus
// built in memory always does.
func (c *Corpus) Decoded() bool { return c.decode == nil || c.pois != nil }

// OnDecode hands f every lazy corpus that decodes until the test ends.
func OnDecode(tb testing.TB, f func(*Corpus)) {
	decodeHook = f
	tb.Cleanup(func() { decodeHook = nil })
}
