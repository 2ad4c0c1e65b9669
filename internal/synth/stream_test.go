package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"crosssched/internal/trace"
)

// TestStreamMatchesGenerate: the streaming generator must emit exactly the
// jobs Generate produces, in order, with the same System — for every
// verification profile (single/multi-VC, bursty) and a DL profile with
// adaptive behavior. Generate is implemented as a drain of Stream, so this
// pins the drain (ordering, Wait fill, ID density) rather than two
// implementations against each other.
func TestStreamMatchesGenerate(t *testing.T) {
	profiles := append(VerifyProfiles(2), Philly(0.5))
	for _, p := range profiles {
		want, err := p.Generate(11)
		if err != nil {
			t.Fatalf("%s: %v", p.Sys.Name, err)
		}
		s, err := p.Stream(11)
		if err != nil {
			t.Fatalf("%s: %v", p.Sys.Name, err)
		}
		if s.System() != want.System {
			t.Fatalf("%s: system %+v want %+v", p.Sys.Name, s.System(), want.System)
		}
		i := 0
		for {
			j, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: job %d: %v", p.Sys.Name, i, err)
			}
			if i >= want.Len() {
				t.Fatalf("%s: stream emitted more than %d jobs", p.Sys.Name, want.Len())
			}
			if j != want.Jobs[i] {
				t.Fatalf("%s: job %d:\n  stream:   %+v\n  generate: %+v", p.Sys.Name, i, j, want.Jobs[i])
			}
			i++
		}
		if i != want.Len() {
			t.Fatalf("%s: stream emitted %d jobs, Generate %d", p.Sys.Name, i, want.Len())
		}
		// EOF is sticky.
		if _, err := s.Next(); err != io.EOF {
			t.Fatalf("%s: EOF not sticky: %v", p.Sys.Name, err)
		}
	}
}

// TestStreamBufferBounded: the emission buffer tracks the shadow backlog,
// not the trace length — it must stay far below the total job count.
func TestStreamBufferBounded(t *testing.T) {
	p := VerifyHPC(4)
	s, err := p.Stream(3)
	if err != nil {
		t.Fatal(err)
	}
	n, peak := 0, 0
	for {
		_, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
		if w := len(s.buf) - s.head; w > peak {
			peak = w
		}
	}
	if n == 0 {
		t.Fatal("stream produced no jobs")
	}
	if peak >= n/2 {
		t.Fatalf("buffer peak %d of %d jobs: not O(backlog)", peak, n)
	}
}

// TestStreamValidates: an invalid profile fails at construction, like
// Generate.
func TestStreamValidates(t *testing.T) {
	p := VerifyHPC(1)
	p.Users = 0
	if _, err := p.Stream(1); err == nil {
		t.Fatal("invalid profile accepted")
	}
}

// TestStreamSWFDigests pins the generator's output bytes: the SHA-256 of
// the streamed SWF trace (five days) for every system profile at two seeds.
// The generator's bookkeeping (the shadow schedulers' completion heaps, the
// emission buffer's start table) and the SWF writer's number formatting may
// be rewritten for speed, but not one byte of a trace may change.
func TestStreamSWFDigests(t *testing.T) {
	for _, c := range []struct {
		system string
		seed   uint64
		digest string
	}{
		{"Mira", 1, "b0b5551f5b7fc05d4bc82d5cb32afcd5517fcdaaefca7dc666179102d65a3a2b"},
		{"Mira", 7, "407f2590266444b43f5b91a23ff09b5977c0cbd200d09fe5651271d8184c997c"},
		{"Theta", 1, "805143207f5dd05a9f77a4522bf29dc3e4c7030dcdb3049f8e7e66e7f436188e"},
		{"Theta", 7, "cfeb71e869399de095635f7ca27d03a75f56b75cb13236caa18dc0ea8e6eaeb4"},
		{"BlueWaters", 1, "813d095003f9349a195d57099f96a43dccf4a3ff0273a15f7b03f553006c65e4"},
		{"BlueWaters", 7, "b5725ed953f2670358cb26b520b61283af5fc4857c1f97ba37f63cabd642a944"},
		{"Philly", 1, "b678680fd951a4eed81e7f053035c3cee163b76d62fca25b1f6aa5ffc00792f5"},
		{"Philly", 7, "0f09e6cf031ff4132a7cf95ea73648a2f4c5c75bbc3ea02148c633511a51442b"},
		{"Helios", 1, "309d25ee440dbf454419bd031640389d9c406118a7b5d7c51de79f8278a2ff41"},
		{"Helios", 7, "0ab22c72b378dc82cd9589baaa025f6041faabe1621e57cb300f0cd944a12bfd"},
	} {
		p, err := ByName(c.system, 5)
		if err != nil {
			t.Fatal(err)
		}
		s, err := p.Stream(c.seed)
		if err != nil {
			t.Fatalf("%s/%d: %v", c.system, c.seed, err)
		}
		h := sha256.New()
		if _, err := trace.WriteSWFStream(h, s); err != nil {
			t.Fatalf("%s/%d: %v", c.system, c.seed, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
			t.Errorf("%s/%d: SWF digest %s, want %s", c.system, c.seed, got, c.digest)
		}
	}
}
