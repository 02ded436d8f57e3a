// Package assemble implements EnCore's data assembler (Figure 3): it parses
// the configuration files captured in a system image, infers semantic types
// for every entry, augments eligible entries with environment-derived
// attributes (Table 5a), attaches the configuration-independent environment
// attributes (Table 5b), and emits the result as a dataset table.
//
// After assembly, original configuration entries and environment-derived
// data are integrated and treated uniformly as "attributes" by the rule
// inference and anomaly detection stages.
package assemble

import (
	"fmt"
	"log/slog"
	"strconv"
	"strings"

	"repro/internal/conftypes"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

// Augmenter derives one environment attribute from a configuration value of
// a specific semantic type (one row of Table 5a).
type Augmenter struct {
	// Suffix is appended to the entry's attribute name with a dot
	// separator ("owner" gives "datadir.owner").
	Suffix string
	// Type of the augmented attribute.
	Type conftypes.Type
	// Compute returns the augmented value for the entry value in the
	// context of the image; ok=false emits nothing (e.g. path missing).
	Compute func(value string, img *sysimage.Image) (string, bool)
}

// EnvAttr is a configuration-independent environment attribute
// (one row of Table 5b).
type EnvAttr struct {
	Name    string
	Type    conftypes.Type
	Compute func(img *sysimage.Image) (string, bool)
}

// Assembler converts images into dataset rows.
type Assembler struct {
	Inferencer *conftypes.Inferencer
	augmenters map[conftypes.Type][]Augmenter
	envAttrs   []EnvAttr
	// SkipPatternValues suppresses semantic augmentation for values that
	// look like globs or regular expressions (a documented inference-error
	// source in the paper).
	SkipPatternValues bool
	// Workers bounds the assembly pool; 0 means NumCPU, 1 runs the same
	// path inline on the calling goroutine. The assembled dataset does not
	// depend on it.
	Workers int
	// Telemetry, when set, receives stage timings and counters for every
	// assembly run. Nil disables instrumentation.
	Telemetry *telemetry.Recorder
	// Log, when set, receives structured records for assembly failures
	// (parse errors at warn, correlated with their assemble.image span).
	// Nil silences assembler logging.
	Log *slog.Logger
}

// New returns an assembler with the default inferencer, the default
// Table 5a augmenters, and the default Table 5b environment attributes.
func New() *Assembler {
	a := &Assembler{
		Inferencer:        conftypes.NewInferencer(),
		augmenters:        make(map[conftypes.Type][]Augmenter),
		SkipPatternValues: true,
	}
	a.installDefaults()
	return a
}

// AddAugmenter registers an additional augmenter for a type (the
// customization hook of Section 5.3).
func (a *Assembler) AddAugmenter(t conftypes.Type, aug Augmenter) {
	a.augmenters[t] = append(a.augmenters[t], aug)
}

// AddEnvAttr registers an additional environment attribute.
func (a *Assembler) AddEnvAttr(e EnvAttr) {
	a.envAttrs = append(a.envAttrs, e)
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

func (a *Assembler) installDefaults() {
	// FilePath: the seven attributes of Table 5a plus existence.
	fp := []Augmenter{
		{Suffix: "exists", Type: conftypes.TypeBoolean, Compute: func(v string, im *sysimage.Image) (string, bool) {
			return boolStr(im.Exists(v)), true
		}},
		{Suffix: "owner", Type: conftypes.TypeUserName, Compute: func(v string, im *sysimage.Image) (string, bool) {
			if fm := im.Resolve(v); fm != nil {
				return fm.Owner, true
			}
			return "", false
		}},
		{Suffix: "group", Type: conftypes.TypeGroupName, Compute: func(v string, im *sysimage.Image) (string, bool) {
			if fm := im.Resolve(v); fm != nil {
				return fm.Group, true
			}
			return "", false
		}},
		{Suffix: "type", Type: conftypes.TypeEnum, Compute: func(v string, im *sysimage.Image) (string, bool) {
			if fm := im.Resolve(v); fm != nil {
				return fm.Kind.String(), true
			}
			return "missing", true
		}},
		{Suffix: "permission", Type: conftypes.TypePermission, Compute: func(v string, im *sysimage.Image) (string, bool) {
			if fm := im.Resolve(v); fm != nil {
				return fmt.Sprintf("0%o", fm.Mode&0o777), true
			}
			return "", false
		}},
		{Suffix: "hasDir", Type: conftypes.TypeBoolean, Compute: func(v string, im *sysimage.Image) (string, bool) {
			if im.IsDir(v) {
				return boolStr(im.HasSubdir(v)), true
			}
			return "", false
		}},
		{Suffix: "hasSymLink", Type: conftypes.TypeBoolean, Compute: func(v string, im *sysimage.Image) (string, bool) {
			if im.IsDir(v) {
				return boolStr(im.HasSymlink(v)), true
			}
			return "", false
		}},
		{Suffix: "worldReadable", Type: conftypes.TypeBoolean, Compute: func(v string, im *sysimage.Image) (string, bool) {
			if fm := im.Resolve(v); fm != nil {
				return boolStr(fm.Mode&0o004 != 0), true
			}
			return "", false
		}},
	}
	a.augmenters[conftypes.TypeFilePath] = fp

	// IPAddress: Table 5a's Local / IPv6 / AnyAddr flags.
	a.augmenters[conftypes.TypeIPAddress] = []Augmenter{
		{Suffix: "Local", Type: conftypes.TypeBoolean, Compute: func(v string, _ *sysimage.Image) (string, bool) {
			return boolStr(isPrivateAddr(v)), true
		}},
		{Suffix: "IPv6", Type: conftypes.TypeBoolean, Compute: func(v string, _ *sysimage.Image) (string, bool) {
			return boolStr(strings.Contains(v, ":")), true
		}},
		{Suffix: "AnyAddr", Type: conftypes.TypeBoolean, Compute: func(v string, _ *sysimage.Image) (string, bool) {
			return boolStr(v == "0.0.0.0" || v == "::"), true
		}},
	}

	// UserName: admin/root-group flags and the primary group.
	a.augmenters[conftypes.TypeUserName] = []Augmenter{
		{Suffix: "exists", Type: conftypes.TypeBoolean, Compute: func(v string, im *sysimage.Image) (string, bool) {
			return boolStr(im.UserExists(v)), true
		}},
		{Suffix: "isAdmin", Type: conftypes.TypeBoolean, Compute: func(v string, im *sysimage.Image) (string, bool) {
			if !im.UserExists(v) {
				return "", false
			}
			return boolStr(im.IsAdmin(v)), true
		}},
		{Suffix: "isRootGroup", Type: conftypes.TypeBoolean, Compute: func(v string, im *sysimage.Image) (string, bool) {
			if !im.UserExists(v) {
				return "", false
			}
			return boolStr(im.PrimaryGroup(v) == "root"), true
		}},
		{Suffix: "isGroup", Type: conftypes.TypeGroupName, Compute: func(v string, im *sysimage.Image) (string, bool) {
			g := im.PrimaryGroup(v)
			return g, g != ""
		}},
	}

	// PortNumber: registration and privilege level.
	a.augmenters[conftypes.TypePortNumber] = []Augmenter{
		{Suffix: "registered", Type: conftypes.TypeBoolean, Compute: func(v string, im *sysimage.Image) (string, bool) {
			n, err := strconv.Atoi(v)
			if err != nil {
				return "", false
			}
			return boolStr(im.PortRegistered(n)), true
		}},
		{Suffix: "privileged", Type: conftypes.TypeBoolean, Compute: func(v string, _ *sysimage.Image) (string, bool) {
			n, err := strconv.Atoi(v)
			if err != nil {
				return "", false
			}
			return boolStr(n < 1024), true
		}},
	}

	// Table 5b: environment attributes independent of configuration
	// entries.
	a.envAttrs = []EnvAttr{
		{Name: "Sys.HostName", Type: conftypes.TypeString, Compute: func(im *sysimage.Image) (string, bool) {
			return im.OS.HostName, im.OS.HostName != ""
		}},
		{Name: "Sys.IPAddress", Type: conftypes.TypeIPAddress, Compute: func(im *sysimage.Image) (string, bool) {
			return im.OS.IPAddress, im.OS.IPAddress != ""
		}},
		{Name: "Sys.FSType", Type: conftypes.TypeString, Compute: func(im *sysimage.Image) (string, bool) {
			return im.OS.FSType, im.OS.FSType != ""
		}},
		{Name: "OS.DistName", Type: conftypes.TypeString, Compute: func(im *sysimage.Image) (string, bool) {
			return im.OS.DistName, im.OS.DistName != ""
		}},
		{Name: "OS.Version", Type: conftypes.TypeString, Compute: func(im *sysimage.Image) (string, bool) {
			return im.OS.Version, im.OS.Version != ""
		}},
		{Name: "OS.SEStatus", Type: conftypes.TypeEnum, Compute: func(im *sysimage.Image) (string, bool) {
			return im.OS.SELinux, im.OS.SELinux != ""
		}},
		{Name: "OS.AppArmor", Type: conftypes.TypeBoolean, Compute: func(im *sysimage.Image) (string, bool) {
			return boolStr(im.OS.AppArmor), true
		}},
		{Name: "CPU.Threads", Type: conftypes.TypeNumber, Compute: func(im *sysimage.Image) (string, bool) {
			if !im.HW.Present {
				return "", false
			}
			return strconv.Itoa(im.HW.CPUThreads), true
		}},
		{Name: "CPU.Freq", Type: conftypes.TypeNumber, Compute: func(im *sysimage.Image) (string, bool) {
			if !im.HW.Present {
				return "", false
			}
			return strconv.Itoa(im.HW.CPUFreqMHz), true
		}},
		{Name: "MemSize", Type: conftypes.TypeSize, Compute: func(im *sysimage.Image) (string, bool) {
			if !im.HW.Present {
				return "", false
			}
			return conftypes.FormatSize(im.HW.MemBytes), true
		}},
		{Name: "HDD.AvailSpace", Type: conftypes.TypeSize, Compute: func(im *sysimage.Image) (string, bool) {
			if !im.HW.Present {
				return "", false
			}
			return conftypes.FormatSize(im.HW.DiskBytes), true
		}},
	}
}

// isPrivateAddr reports whether the address is loopback or in the RFC 1918
// / RFC 4193 private ranges.
func isPrivateAddr(v string) bool {
	if v == "127.0.0.1" || v == "::1" || strings.HasPrefix(v, "127.") {
		return true
	}
	if strings.HasPrefix(v, "10.") || strings.HasPrefix(v, "192.168.") {
		return true
	}
	if strings.HasPrefix(v, "172.") {
		parts := strings.SplitN(v, ".", 3)
		if len(parts) >= 2 {
			if n, err := strconv.Atoi(parts[1]); err == nil && n >= 16 && n <= 31 {
				return true
			}
		}
	}
	// RFC 4193 unique-local IPv6.
	lower := strings.ToLower(v)
	return strings.HasPrefix(lower, "fc") || strings.HasPrefix(lower, "fd")
}
