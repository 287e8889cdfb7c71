package arch

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSpec reads an accelerator description from a simple line-based
// format, mirroring the configuration-file interface the paper's artifact
// exposes ("TileFlow also has a programming interface using configuration
// files"). Example:
//
//	arch MyEdge
//	mesh 32 32
//	freq 1.0
//	word 2
//	macs-per-pe 1
//	vector-lanes 32
//	# levels innermost first: name capacity bandwidthGBs fanout
//	level Reg  2KB   0    1
//	level L1   4MB   1200 1024
//	level DRAM inf   60   4
//	direct 0 2
//
// Capacities accept KB/MB/GB suffixes or "inf" for unbounded (DRAM).
// "direct inner outer" grants a direct datapath between two levels.
func ParseSpec(src string) (*Spec, error) {
	s := &Spec{FreqGHz: 1, WordBytes: 2, MACsPerPE: 1, VectorLanesPerSubcore: 32}
	for ln, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		bad := func(why string) error {
			return fmt.Errorf("arch: line %d: %s: %q", ln+1, why, line)
		}
		switch fields[0] {
		case "arch":
			if len(fields) != 2 {
				return nil, bad("want 'arch <name>'")
			}
			s.Name = fields[1]
		case "mesh":
			if len(fields) != 3 {
				return nil, bad("want 'mesh <x> <y>'")
			}
			x, errX := strconv.Atoi(fields[1])
			y, errY := strconv.Atoi(fields[2])
			if errX != nil || errY != nil {
				return nil, bad("bad mesh dims")
			}
			s.MeshX, s.MeshY = x, y
		case "freq":
			if len(fields) != 2 {
				return nil, bad("want 'freq <GHz>'")
			}
			f, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, bad("bad frequency")
			}
			s.FreqGHz = f
		case "word":
			if len(fields) != 2 {
				return nil, bad("want 'word <bytes>'")
			}
			w, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, bad("bad word size")
			}
			s.WordBytes = w
		case "macs-per-pe":
			if len(fields) != 2 {
				return nil, bad("want 'macs-per-pe <n>'")
			}
			m, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, bad("bad MACs/PE")
			}
			s.MACsPerPE = m
		case "vector-lanes":
			if len(fields) != 2 {
				return nil, bad("want 'vector-lanes <n>'")
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, bad("bad lane count")
			}
			s.VectorLanesPerSubcore = v
		case "level":
			if len(fields) != 5 {
				return nil, bad("want 'level <name> <capacity> <bwGBs> <fanout>'")
			}
			cap, err := ParseCapacity(fields[2])
			if err != nil {
				return nil, bad(err.Error())
			}
			bw, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, bad("bad bandwidth")
			}
			fan, err := strconv.Atoi(fields[4])
			if err != nil {
				return nil, bad("bad fanout")
			}
			s.Levels = append(s.Levels, Level{
				Name: fields[1], CapacityBytes: cap, BandwidthGBs: bw, Fanout: fan,
			})
		case "direct":
			if len(fields) != 3 {
				return nil, bad("want 'direct <inner> <outer>'")
			}
			in, errI := strconv.Atoi(fields[1])
			out, errO := strconv.Atoi(fields[2])
			if errI != nil || errO != nil {
				return nil, bad("bad level indices")
			}
			s.DirectAccess = append(s.DirectAccess, [2]int{in, out})
		default:
			return nil, bad("unknown directive")
		}
	}
	if s.Name == "" {
		s.Name = "custom"
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// ParseCapacity reads a capacity: "384KB", "4MB", "2GB", a plain byte
// count, or "inf" or 0 for an unbounded level (returned as 0). The YAML
// front end reads capacities with it too.
func ParseCapacity(src string) (int64, error) {
	low := strings.ToLower(src)
	if low == "inf" || low == "0" {
		return 0, nil
	}
	mult := int64(1)
	num := low
	switch {
	case strings.HasSuffix(low, "gb"):
		mult, num = 1<<30, strings.TrimSuffix(low, "gb")
	case strings.HasSuffix(low, "mb"):
		mult, num = 1<<20, strings.TrimSuffix(low, "mb")
	case strings.HasSuffix(low, "kb"):
		mult, num = 1<<10, strings.TrimSuffix(low, "kb")
	case strings.HasSuffix(low, "b"):
		num = strings.TrimSuffix(low, "b")
	}
	v, err := strconv.ParseInt(num, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad capacity %q", src)
	}
	return v * mult, nil
}

// FormatSpec renders a spec back into the ParseSpec format.
func FormatSpec(s *Spec) string {
	return string(AppendSpec(make([]byte, 0, 128+48*len(s.Levels)), s))
}

// AppendSpec appends FormatSpec's text to dst, so a caller that hashes it
// together with other text renders it straight into its own buffer.
// Capacities print in the largest unit that divides them exactly (MB, KB,
// plain bytes) and unbounded levels as "inf"; bandwidths and the clock as
// the shortest decimal that reads back exactly.
func AppendSpec(dst []byte, s *Spec) []byte {
	line := func(key string, vals ...int) {
		dst = append(dst, key...)
		for _, v := range vals {
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, int64(v), 10)
		}
		dst = append(dst, '\n')
	}
	dst = append(dst, "arch "...)
	dst = append(dst, s.Name...)
	dst = append(dst, '\n')
	line("mesh", s.MeshX, s.MeshY)
	dst = append(dst, "freq "...)
	dst = strconv.AppendFloat(dst, s.FreqGHz, 'g', -1, 64)
	dst = append(dst, '\n')
	line("word", s.WordBytes)
	line("macs-per-pe", s.MACsPerPE)
	line("vector-lanes", s.VectorLanesPerSubcore)
	for _, l := range s.Levels {
		dst = append(dst, "level "...)
		dst = append(dst, l.Name...)
		dst = append(dst, ' ')
		dst = AppendCapacity(dst, l.CapacityBytes)
		dst = append(dst, ' ')
		dst = strconv.AppendFloat(dst, l.BandwidthGBs, 'g', -1, 64)
		line("", l.Fanout)
	}
	for _, p := range s.DirectAccess {
		line("direct", p[0], p[1])
	}
	return dst
}

// AppendCapacity appends a capacity in the largest unit that divides it
// exactly (MB, KB, plain bytes), or "inf" for an unbounded level (0).
// ParseCapacity reads it back.
func AppendCapacity(dst []byte, bytes int64) []byte {
	switch {
	case bytes == 0:
		return append(dst, "inf"...)
	case bytes%(1<<20) == 0:
		return append(strconv.AppendInt(dst, bytes>>20, 10), "MB"...)
	case bytes%(1<<10) == 0:
		return append(strconv.AppendInt(dst, bytes>>10, 10), "KB"...)
	}
	return strconv.AppendInt(dst, bytes, 10)
}

// StructureSignature renders only the structural skeleton of an
// architecture: the memory hierarchy's level names, each level's fanout,
// and the direct-access edges — with capacities, bandwidths, clocking,
// and datapath scale dropped. Two specs with the same signature accept
// the same mapping encodings (same levels to stage at, same spatial
// splits), which is the compatibility the warm-start library needs: a
// checkpoint donated across such specs transfers encodings that remain
// well-formed, while every capacity- or bandwidth-dependent number is
// recomputed from scratch.
func StructureSignature(s *Spec) string {
	var b strings.Builder
	for _, l := range s.Levels {
		fmt.Fprintf(&b, "level %s %d\n", l.Name, l.Fanout)
	}
	for _, p := range s.DirectAccess {
		fmt.Fprintf(&b, "direct %d %d\n", p[0], p[1])
	}
	return b.String()
}
