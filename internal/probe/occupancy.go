package probe

// Histogram counts integer-valued samples (occupancies). The counts
// slice grows to the largest observed value, which is naturally
// bounded by the sampled structure's capacity (ROB size, IQ size,
// registers per subset).
type Histogram struct {
	Counts []uint64
	N      uint64
	Sum    uint64
}

// Add records one sample (negative values are clamped to 0).
func (h *Histogram) Add(v int) { h.AddN(v, 1) }

// AddN records n samples of the same value v — a level that held for
// n cycles.
func (h *Histogram) AddN(v int, n uint64) {
	if v < 0 {
		v = 0
	}
	for len(h.Counts) <= v {
		h.Counts = append(h.Counts, 0)
	}
	h.Counts[v] += n
	h.N += n
	h.Sum += n * uint64(v)
}

// Mean returns the average sample (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// Percentile returns the smallest value v such that at least p (in
// [0,1]) of the samples are <= v.
func (h *Histogram) Percentile(p float64) int {
	if h.N == 0 {
		return 0
	}
	want := uint64(p * float64(h.N))
	if want < 1 {
		want = 1
	}
	var cum uint64
	for v, c := range h.Counts {
		cum += c
		if cum >= want {
			return v
		}
	}
	return len(h.Counts) - 1
}

// Max returns the largest observed value.
func (h *Histogram) Max() int {
	for v := len(h.Counts) - 1; v >= 0; v-- {
		if h.Counts[v] > 0 {
			return v
		}
	}
	return 0
}

// Occupancy holds the per-cycle occupancy histograms of the machine's
// queueing structures, sampled once per measured cycle.
type Occupancy struct {
	// ROB is the reorder-buffer occupancy (in-flight µops).
	ROB Histogram
	// IQ is the per-cluster issue-queue occupancy.
	IQ []Histogram
	// IntFree and FPFree are the per-subset free-list levels of the
	// two register classes — low values are the §2.3 subset pressure
	// that produces rename stalls and deadlock workarounds.
	IntFree []Histogram
	FPFree  []Histogram
}

// SampleIQ records cluster c's issue-queue occupancy v for n cycles.
func (o *Occupancy) SampleIQ(c, v int, n uint64) { sampleAt(&o.IQ, c, v, n) }

// SampleIntFree records subset s's integer free-list level v for n
// cycles.
func (o *Occupancy) SampleIntFree(s, v int, n uint64) { sampleAt(&o.IntFree, s, v, n) }

// SampleFPFree records subset s's floating-point free-list level v
// for n cycles.
func (o *Occupancy) SampleFPFree(s, v int, n uint64) { sampleAt(&o.FPFree, s, v, n) }

func sampleAt(hs *[]Histogram, i, v int, n uint64) {
	for len(*hs) <= i {
		*hs = append(*hs, Histogram{})
	}
	(*hs)[i].AddN(v, n)
}

func (o *Occupancy) reset() {
	*o = Occupancy{}
}
