package arch

import (
	"testing"
	"testing/quick"
)

func TestSpecsValidate(t *testing.T) {
	for _, s := range []*Spec{Edge(), Cloud(), Validation(), A100Like()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestInstancesAndPEs(t *testing.T) {
	e := Edge()
	if got := e.Instances(1); got != 4 {
		t.Errorf("Edge L1 instances = %d, want 4 cores", got)
	}
	if got := e.TotalPEs(); got != 4*32*32 {
		t.Errorf("Edge PEs = %d", got)
	}
	c := Cloud()
	if got := c.Instances(2); got != 4 {
		t.Errorf("Cloud L2 instances = %d, want 4 cores", got)
	}
	if got := c.Instances(1); got != 64 {
		t.Errorf("Cloud L1 instances = %d, want 64 sub-cores", got)
	}
	if got := c.TotalPEs(); got != 256*256 {
		t.Errorf("Cloud PEs = %d, want the Table 4 256x256", got)
	}
}

func TestAggregateMesh(t *testing.T) {
	cases := []struct {
		spec *Spec
		x, y int
	}{
		{Edge(), 64, 64},
		{Cloud(), 256, 256},
		{Validation(), 32, 32},
	}
	for _, c := range cases {
		x, y := c.spec.AggregateMesh()
		if x != c.x || y != c.y {
			t.Errorf("%s aggregate mesh = %dx%d, want %dx%d", c.spec.Name, x, y, c.x, c.y)
		}
		if x*y != c.spec.TotalPEs() {
			t.Errorf("%s aggregate mesh %dx%d != total PEs %d", c.spec.Name, x, y, c.spec.TotalPEs())
		}
	}
}

func TestWordsPerCycle(t *testing.T) {
	e := Edge()
	// 60 GB/s at 1 GHz, 2-byte words = 30 words/cycle.
	if got := e.WordsPerCycle(e.DRAMLevel()); got != 30 {
		t.Errorf("DRAM words/cycle = %v, want 30", got)
	}
	v := Validation()
	// 25.6 GB/s at 0.4 GHz, 2-byte words = 32 words/cycle.
	if got := v.WordsPerCycle(v.DRAMLevel()); got != 32 {
		t.Errorf("validation DRAM words/cycle = %v, want 32", got)
	}
}

func TestModifiers(t *testing.T) {
	base := Edge()
	pe := base.WithPEMesh(16, 16)
	if pe.TotalPEs() != 4*256 {
		t.Errorf("resized PEs = %d", pe.TotalPEs())
	}
	if base.MeshX != 32 {
		t.Error("WithPEMesh mutated the original")
	}
	capd := base.WithLevelCapacity("L1", 1024)
	if capd.Levels[1].CapacityBytes != 1024 || base.Levels[1].CapacityBytes == 1024 {
		t.Error("WithLevelCapacity wrong or mutating")
	}
	bw := base.WithLevelBandwidth("DRAM", 100)
	if bw.Levels[2].BandwidthGBs != 100 || base.Levels[2].BandwidthGBs == 100 {
		t.Error("WithLevelBandwidth wrong or mutating")
	}
	if base.LevelIndex("l1") != 1 || base.LevelIndex("nope") != -1 {
		t.Error("LevelIndex")
	}
}

func TestValidateRejects(t *testing.T) {
	s := Edge()
	s.Levels[2].CapacityBytes = 1 // DRAM must be unbounded
	if err := s.Validate(); err == nil {
		t.Error("want bounded-DRAM error")
	}
	s2 := Edge()
	s2.MeshX = 7 // fanout mismatch
	if err := s2.Validate(); err == nil {
		t.Error("want mesh/fanout mismatch error")
	}
	s3 := Edge()
	s3.Levels = s3.Levels[:1]
	if err := s3.Validate(); err == nil {
		t.Error("want too-few-levels error")
	}
}

// TestPropertyAggregateMeshCoversPEs: for power-of-two sub-core grids the
// aggregate mesh tiles the chip exactly.
func TestPropertyAggregateMeshCoversPEs(t *testing.T) {
	prop := func(cores, meshPow uint8) bool {
		nc := 1 << (int(cores) % 5)     // 1..16 cores
		mesh := 8 << (int(meshPow) % 3) // 8..32
		s := &Spec{
			Name: "t",
			Levels: []Level{
				{Name: "Reg", CapacityBytes: 1024, Fanout: 1},
				{Name: "L1", CapacityBytes: 1 << 20, BandwidthGBs: 100, Fanout: mesh * mesh},
				{Name: "DRAM", BandwidthGBs: 10, Fanout: nc},
			},
			MeshX: mesh, MeshY: mesh,
			FreqGHz: 1, WordBytes: 2, MACsPerPE: 1, VectorLanesPerSubcore: 32,
		}
		if err := s.Validate(); err != nil {
			return false
		}
		x, y := s.AggregateMesh()
		return x*y == s.TotalPEs() && x >= mesh && y >= mesh
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	for _, s := range []*Spec{Edge(), Cloud(), Validation(), A100Like()} {
		text := FormatSpec(s)
		back, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("%s: %v\n%s", s.Name, err, text)
		}
		if FormatSpec(back) != text {
			t.Errorf("%s: round trip changed\n%s\nvs\n%s", s.Name, text, FormatSpec(back))
		}
		if back.TotalPEs() != s.TotalPEs() || back.NumLevels() != s.NumLevels() {
			t.Errorf("%s: structure changed", s.Name)
		}
	}
}

func TestParseSpecExample(t *testing.T) {
	src := `
arch MyEdge
mesh 32 32
freq 1.0
word 2
macs-per-pe 1
vector-lanes 32
# levels innermost first
level Reg  2KB   0    1
level L1   4MB   1200 1024
level DRAM inf   60   4
direct 0 2
`
	s, err := ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "MyEdge" || s.TotalPEs() != 4096 {
		t.Errorf("parsed wrong: %s %d PEs", s.Name, s.TotalPEs())
	}
	if s.Levels[1].CapacityBytes != 4<<20 {
		t.Errorf("L1 capacity = %d", s.Levels[1].CapacityBytes)
	}
	if !s.HasDirectAccess(0, 2) {
		t.Error("direct access not parsed")
	}
	if s.HasDirectAccess(0, 3) {
		t.Error("phantom direct access")
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := []string{
		"arch",              // missing name
		"mesh 32",           // missing dim
		"level Reg 2KB 0",   // missing fanout
		"level Reg 2xx 0 1", // bad capacity
		"bogus 1 2 3",       // unknown directive
		"arch x\nmesh 8 8\nlevel Reg 1KB 0 1\nlevel L1 1KB 1 64\nlevel DRAM 1KB 1 1", // bounded DRAM
	}
	for _, src := range cases {
		if _, err := ParseSpec(src); err == nil {
			t.Errorf("want error for %q", src)
		}
	}
}

// BenchmarkFormatSpec renders the Cloud accelerator, the architecture text
// every serve and mapper cache key on it hashes.
func BenchmarkFormatSpec(b *testing.B) {
	s := Cloud()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		formatSink = FormatSpec(s)
	}
}

// formatSink keeps the benchmarked rendering live.
var formatSink string
