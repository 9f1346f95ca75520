package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"sita/internal/workload"
)

// jobsDigest hashes every job's ID, arrival bits and size bits, in order.
func jobsDigest(jobs []workload.Job) []byte {
	h := sha256.New()
	var buf [24]byte
	for _, j := range jobs {
		binary.LittleEndian.PutUint64(buf[0:], uint64(j.ID))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(j.Arrival))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(j.Size))
		h.Write(buf[:])
	}
	return h.Sum(nil)
}

// TestGeneratedStreamsGolden pins the generated job streams, their size
// means and the retimed streams bit for bit. results/ exercises only some
// of these streams; this covers every built-in profile, both arrival
// processes (GapSCV 1 is the Poisson branch), burst-correlated sizes and
// both retiming modes in milliseconds.
func TestGeneratedStreamsGolden(t *testing.T) {
	poisson := C90()
	poisson.Name += "/poisson"
	poisson.GapSCV = 1
	banded := C90()
	banded.Name += "/banded"
	banded.BurstSizeBand = 0.2
	want := []struct {
		p    Profile
		jobs string
		mean uint64
	}{
		{C90(), "3c64947b25f0690b122b3d83e526a23da48420c4a70390725648109744ffa078", 0x40b1bbbd39985471},
		{J90(), "6cf2f1d6ffedaf32e9873419a4c97eeeff3e59cf3198e5f9a8a3be8c1f1b06ee", 0x40a941210bcc1d7b},
		{CTC(), "a2ded27fa055ee970c890dcbb6e311509c54a333650f1e452593fe88d39038fb", 0x40aeef8571a9a392},
		{poisson, "ff64e4790cecbfca9bea0d589a7c1bc08017cfe75ab9dabebcc7f4b7270de3e0", 0x40b1bbbd39985471},
		{banded, "c793e1a74d85a1550e27e612609702a7b21de113ee1a3a4da7cad5f2e04d01df", 0x40adcddce873ea55},
	}
	for _, w := range want {
		tr, err := Generate(w.p, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := hex.EncodeToString(jobsDigest(tr.Jobs()))
		mean := math.Float64bits(tr.SizeMean())
		if got != w.jobs || mean != w.mean {
			t.Errorf("Generate(%s, 1): digest %s, size mean %#x; want %s, %#x", w.p.Name, got, mean, w.jobs, w.mean)
		}
	}

	tr, err := Generate(C90(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		poisson bool
		jobs    string
	}{
		{true, "115ce1b01de2e22524e96d6b5e49054092fbaafe0311a8310a0deadc3d719ef6"},
		{false, "f071ace99e4d085f4b3a8ba234c16c6aca26eaecc7ca4d099f1caa404994ff89"},
	} {
		got := hex.EncodeToString(jobsDigest(tr.JobsAtLoad(0.7, 2, w.poisson, 1)))
		if got != w.jobs {
			t.Errorf("JobsAtLoad(0.7, 2, poisson=%v, 1): digest %s, want %s", w.poisson, got, w.jobs)
		}
	}
}
