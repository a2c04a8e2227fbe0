// Package use copies sealer/opener values in the ways the analyzer
// must catch, plus the pointer idioms it must allow.
package use

import "sealcopydata/wire"

// endpoint embeds a Sealer by value: copying the endpoint forks the
// nonce counter just as surely as copying the Sealer itself.
type endpoint struct {
	s     wire.Sealer
	ident uint32
}

// Copies duplicates live sealer state through deref, index, and range.
func Copies(p *wire.Sealer, list []*wire.Sealer) uint64 {
	v := *p // want `copies a Sealer by value`
	n := v.Seal()
	for _, s := range list {
		n += s.Seal()
	}
	return n
}

// CopyFromSlice copies an element out of a value slice.
func CopyFromSlice(list []wire.Sealer) uint64 {
	w := list[0] // want `copies a Sealer by value`
	return w.Seal()
}

// RangeCopies copies each element into the loop variable.
func RangeCopies(list []wire.Sealer) uint64 {
	var n uint64
	for _, s := range list { // want `range copies a Sealer element`
		n += s.Seal()
	}
	return n
}

// CopyStruct copies a struct that contains a Sealer.
func CopyStruct(e *endpoint) uint64 {
	d := *e // want `copies a Sealer by value`
	return d.s.Seal()
}

// ByValueParam declares a value parameter: a copy at every call site.
func ByValueParam(s wire.Sealer) uint64 { // want `declares a by-value Sealer`
	return s.Seal()
}

// ByValueResult declares a value result: a copy at every return.
func ByValueResult() wire.Sealer { // want `declares a by-value Sealer`
	return *wire.NewSealer() // want `copies a Sealer by value`
}

// OpenerParam covers the second guarded type.
func OpenerParam(o wire.Opener) bool { // want `declares a by-value Opener`
	return o.Accept(1, 1)
}

// sender keeps a replay window by value, as an endpoint's per-sender
// record does; the record must flow by pointer.
type sender struct {
	window wire.ReplayWindow
}

// CopyWindow copies a window out of a record, and a record out of a
// table: both fork the window.
func CopyWindow(table []sender) bool {
	w := table[0].window // want `copies a ReplayWindow by value`
	r := table[1]        // want `copies a ReplayWindow by value`
	return w.Accept(1) && r.window.Accept(1) && (&table[2]).window.Accept(1)
}

// Fine shows the sanctioned pointer flow end to end.
func Fine(p *wire.Sealer) (*wire.Sealer, uint64) {
	q := p
	o := wire.NewOpener()
	if !o.Accept(1, q.Seal()) {
		return nil, 0
	}
	return q, q.Seal()
}
