// Package copies is go vet input, not part of the build (testdata is
// outside ./...): each line marked want copies a value that must flow
// by pointer, and vet's copylocks check must report it. The wire types
// and the monotonic values hold a noCopy marker for exactly this.
package copies

import (
	"triadtime/internal/monotonic"
	"triadtime/internal/wire"
)

// endpoint holds a Sealer by value: copying the endpoint forks the
// nonce counter just as surely as copying the Sealer itself.
type endpoint struct {
	s     wire.Sealer
	ident uint32
}

// sender keeps a replay window by value, as an endpoint's per-sender
// record does.
type sender struct {
	window wire.ReplayWindow
}

func deref(p *wire.Sealer) {
	v := *p // want `assignment copies lock value to v: triadtime/internal/wire\.Sealer`
	_ = &v
}

func fromSlice(list []wire.Sealer) {
	w := list[0] // want `assignment copies lock value to w: triadtime/internal/wire\.Sealer`
	_ = &w
}

func rangeCopies(list []wire.Sealer) {
	for _, s := range list { // want `range var s copies lock: triadtime/internal/wire\.Sealer`
		_ = &s
	}
}

func copyStruct(e *endpoint) {
	d := *e // want `assignment copies lock value to d: triadtime/internal/wire/testdata/copies\.endpoint contains triadtime/internal/wire\.Sealer`
	_ = &d
}

func byValueParam(s wire.Sealer) {} // want `byValueParam passes lock by value: triadtime/internal/wire\.Sealer`

func byValueResult(p *wire.Sealer) wire.Sealer {
	return *p // want `return copies lock value: triadtime/internal/wire\.Sealer`
}

func openerParam(o wire.Opener) {} // want `openerParam passes lock by value: triadtime/internal/wire\.Opener`

func copyWindow(table []sender) {
	w := table[0].window // want `assignment copies lock value to w: triadtime/internal/wire\.ReplayWindow`
	r := table[1]        // want `assignment copies lock value to r: triadtime/internal/wire/testdata/copies\.sender contains triadtime/internal/wire\.ReplayWindow`
	_, _ = &w, &r
}

func passOpener(o *wire.Opener) {
	openerParam(*o) // want `call of openerParam copies lock value: triadtime/internal/wire\.Opener`
}

// anchor mirrors the commit vault's fenced state.
type anchor struct {
	Epoch     monotonic.Value[uint64]
	LastNanos monotonic.Value[int64]
}

// rewind is the one overwrite of a monotonic value the compiler allows.
func rewind(x, y *anchor) {
	x.Epoch = y.Epoch         // want `assignment copies lock value to x\.Epoch: triadtime/internal/monotonic\.Value\[uint64\]`
	x.LastNanos = y.LastNanos // want `assignment copies lock value to x\.LastNanos: triadtime/internal/monotonic\.Value\[int64\]`
}

func rewindClamp(x, y *monotonic.Atomic) {
	*x = *y // want `assignment copies lock value to \*x: triadtime/internal/monotonic\.Atomic contains sync/atomic\.Int64`
}

// fine is the sanctioned pointer flow: no report.
func fine(p *wire.Sealer, table []sender, x, y *anchor) *wire.Sealer {
	q := p
	w := &table[2].window
	_ = w
	x.Epoch.Raise(y.Epoch.Load())
	return q
}
