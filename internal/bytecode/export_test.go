package bytecode

import "repro/internal/interp"

// CheckEventParity lets the external test package, which can import the
// benchmark sources, run the per-event contract.
var CheckEventParity = checkEventParity

// TrafficTotals links p on m, whose sink must be an *interp.CountingSink,
// and charges each of p's Traffic lists to fresh sinks twice: as the
// image's folded vector, and one Load or Store per access.
func TrafficTotals(m *interp.Machine, p *Program) (folded, each []interp.CountingSink) {
	img := NewImage(m, p, nil)
	for i, acc := range p.Traffic {
		var f, e interp.CountingSink
		img.vecs[i].addTo(&f)
		vm := VM{Image: img, cost: &e}
		vm.chargeEach(acc)
		folded, each = append(folded, f), append(each, e)
	}
	return folded, each
}
