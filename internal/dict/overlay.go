package dict

import (
	"fmt"
	"math/bits"
	"sync"
)

// overlayBit is the lowest ID an overlay issues. A dictionary that is not
// an overlay issues IDs below it only.
const overlayBit ID = 1 << 31

// maxLayer bounds overlay nesting: layer k keeps 2^(31-k) IDs for itself.
const maxLayer = 16

// layerOf returns the layer whose dictionary issued id: the number of its
// leading one bits. Layer 0 is a dictionary that is not an overlay, layer
// k an overlay stacked k deep.
func layerOf(id ID) int { return bits.LeadingZeros32(^uint32(id)) }

// Overlay returns a dictionary that extends base without writing to it.
// A term base holds resolves to its base ID, through base's read lock
// only; any other term is interned in the overlay itself, under an ID
// whose top bit is set — a range base never issues, so IDs of both sides
// mix freely in one graph. Term, Lookup and Len fall through to base, and
// keep seeing the terms base interns later.
//
// The summarizers name their nodes in an overlay of the input's
// dictionary, which is how a summary shares its input's ID space while
// the input's dictionary (a durable store's, under rdfsumd) holds input
// terms only.
//
// An ID the overlay issued for a term stays that term's ID even if base
// interns the same term afterwards. An overlay of a shared dictionary
// (see Share) is itself shared. Overlays nest: an overlay of an overlay
// takes the next layer's range (top two bits set, then three, …).
func Overlay(base *Dict) *Dict {
	layer := base.layer + 1
	if layer > maxLayer {
		panic(fmt.Sprintf("dict: overlays nested more than %d deep", maxLayer))
	}
	o := &Dict{
		under:  base,
		layer:  layer,
		prefix: layerPrefix(layer),
	}
	if base.mu != nil {
		o.mu = new(sync.RWMutex)
	}
	return o
}

// IsOverlay reports whether d was made by Overlay. The IDs of an overlay
// are not dense: code that needs 1..Len must re-encode first.
func (d *Dict) IsOverlay() bool { return d.under != nil }

// nextOverlayID is the ID an overlay gives the next term it interns; the
// caller holds the overlay's write lock.
func (d *Dict) nextOverlayID() ID {
	n := len(d.recs)
	if n >= 1<<(31-d.layer) {
		panic(fmt.Sprintf("dict: %s is full (%d terms)", d.layerName(), n))
	}
	return d.prefix | ID(n)
}

// layerName describes d's layer for a panic message.
func (d *Dict) layerName() string {
	if d.under == nil {
		return "a base dictionary (layer 0)"
	}
	return fmt.Sprintf("an overlay (layer %d)", d.layer)
}
