// Package sysimage models a configured system image: file-system metadata,
// user and group accounts, registered network services, environment
// variables, and hardware/OS facts.
//
// EnCore treats systems as structured data. Everything the detector needs
// to know about the environment a configuration runs in — who owns a
// directory, whether a path is a regular file, which user ids exist,
// whether SELinux is enforcing — is a metadata lookup against an Image.
// The paper's data collector crawls real VM images; here an Image is built
// either synthetically (internal/corpus) or loaded from a JSON snapshot, but
// the query surface is identical in both cases.
package sysimage

import (
	"fmt"
	"path"
	"strings"
)

// FileKind discriminates file-system object kinds.
type FileKind int

const (
	// KindFile is a regular file.
	KindFile FileKind = iota
	// KindDir is a directory.
	KindDir
	// KindSymlink is a symbolic link.
	KindSymlink
)

// String returns the short human-readable kind name ("file", "dir",
// "symlink").
func (k FileKind) String() string {
	switch k {
	case KindFile:
		return "file"
	case KindDir:
		return "dir"
	case KindSymlink:
		return "symlink"
	default:
		return fmt.Sprintf("FileKind(%d)", int(k))
	}
}

// FileMeta is the per-object file-system metadata the collector gathers.
// Contents of regular files are not captured except for the configuration
// files themselves (held separately in ConfigFiles).
type FileMeta struct {
	Path   string   `json:"path"`
	Kind   FileKind `json:"kind"`
	Owner  string   `json:"owner"`
	Group  string   `json:"group"`
	Mode   uint32   `json:"mode"` // permission bits, e.g. 0o644
	Size   int64    `json:"size"`
	Target string   `json:"target,omitempty"` // symlink target
}

// User is an /etc/passwd row.
type User struct {
	Name    string `json:"name"`
	UID     int    `json:"uid"`
	GID     int    `json:"gid"`
	Home    string `json:"home"`
	Shell   string `json:"shell"`
	IsAdmin bool   `json:"isAdmin"` // sudoer or uid 0
}

// Group is an /etc/group row.
type Group struct {
	Name    string   `json:"name"`
	GID     int      `json:"gid"`
	Members []string `json:"members"`
}

// Service is an /etc/services row.
type Service struct {
	Name     string `json:"name"`
	Port     int    `json:"port"`
	Protocol string `json:"protocol"`
}

// Hardware captures the hardware specification of a (running) instance.
// For dormant images (e.g. freshly crawled EC2 templates) it is absent:
// Present is false and all probes fail. Table 9 case #8 depends on this.
type Hardware struct {
	Present    bool  `json:"present"`
	CPUCores   int   `json:"cpuCores"`
	CPUThreads int   `json:"cpuThreads"`
	CPUFreqMHz int   `json:"cpuFreqMHz"`
	MemBytes   int64 `json:"memBytes"`
	DiskBytes  int64 `json:"diskBytes"`
}

// OSInfo captures distribution facts and security-module state.
type OSInfo struct {
	DistName  string `json:"distName"`
	Version   string `json:"version"`
	SELinux   string `json:"seLinux"`  // "enforcing", "permissive", "disabled"
	AppArmor  bool   `json:"appArmor"` // an AppArmor profile confines the app
	FSType    string `json:"fsType"`
	HostName  string `json:"hostName"`
	IPAddress string `json:"ipAddress"`
}

// ConfigFile is a raw configuration file captured from the image.
type ConfigFile struct {
	App     string `json:"app"`     // "apache", "mysql", "php", "sshd"
	Path    string `json:"path"`    // location inside the image
	Content string `json:"content"` // raw text
}

// Image is a complete captured system image: the raw data the EnCore data
// collector produces for one system.
type Image struct {
	ID          string               `json:"id"`
	ConfigFiles []ConfigFile         `json:"configFiles"`
	Files       map[string]*FileMeta `json:"files"`
	Users       map[string]*User     `json:"users"`
	Groups      map[string]*Group    `json:"groups"`
	Services    []Service            `json:"services"`
	Env         map[string]string    `json:"env"` // only for running instances
	HW          Hardware             `json:"hw"`
	OS          OSInfo               `json:"os"`
}

// New returns an empty image with all maps initialized.
func New(id string) *Image {
	return &Image{
		ID:     id,
		Files:  make(map[string]*FileMeta),
		Users:  make(map[string]*User),
		Groups: make(map[string]*Group),
		Env:    make(map[string]string),
	}
}

// Clone returns a deep copy of the image. The corpus generator derives
// target images from templates by cloning and mutating.
func (im *Image) Clone() *Image {
	c := New(im.ID)
	c.HW = im.HW
	c.OS = im.OS
	c.ConfigFiles = append([]ConfigFile(nil), im.ConfigFiles...)
	c.Services = append([]Service(nil), im.Services...)
	for p, fm := range im.Files {
		dup := *fm
		c.Files[p] = &dup
	}
	for n, u := range im.Users {
		dup := *u
		c.Users[n] = &dup
	}
	for n, g := range im.Groups {
		dup := *g
		dup.Members = append([]string(nil), g.Members...)
		c.Groups[n] = &dup
	}
	for k, v := range im.Env {
		c.Env[k] = v
	}
	return c
}

// normalize cleans a path for lookup: collapses duplicate separators and
// trailing slashes (except root). Lookups nearly always pass clean paths,
// so those skip path.Clean's rewrite loop.
func normalize(p string) string {
	if p == "" || isClean(p) {
		return p
	}
	return path.Clean(p)
}

// isClean reports that path.Clean would return p unchanged. It is one
// byte scan and errs only towards false: any element starting with '.'
// (".", "..", but also ".hidden") sends p through path.Clean.
func isClean[P string | []byte](p P) bool {
	if len(p) == 1 && p[0] == '/' {
		return true
	}
	n := len(p)
	if n == 0 || p[0] == '.' || p[n-1] == '/' {
		return false
	}
	for i := 0; i < n-1; i++ {
		if p[i] == '/' && (p[i+1] == '/' || p[i+1] == '.') {
			return false
		}
	}
	return true
}

// AddFile records file metadata, creating parent directories implicitly
// (root-owned 0755) when absent so that lookups on ancestors succeed.
func (im *Image) AddFile(meta FileMeta) {
	meta.Path = normalize(meta.Path)
	im.ensureParents(meta.Path)
	m := meta
	im.Files[meta.Path] = &m
}

// AddDir is a convenience wrapper adding a directory.
func (im *Image) AddDir(p, owner, group string, mode uint32) {
	im.AddFile(FileMeta{Path: p, Kind: KindDir, Owner: owner, Group: group, Mode: mode})
}

// AddRegular is a convenience wrapper adding a regular file.
func (im *Image) AddRegular(p, owner, group string, mode uint32, size int64) {
	im.AddFile(FileMeta{Path: p, Kind: KindFile, Owner: owner, Group: group, Mode: mode, Size: size})
}

// AddSymlink records a symbolic link pointing at target.
func (im *Image) AddSymlink(p, target, owner, group string) {
	im.AddFile(FileMeta{Path: p, Kind: KindSymlink, Owner: owner, Group: group, Mode: 0o777, Target: target})
}

func (im *Image) ensureParents(p string) {
	for dir := path.Dir(p); dir != "/" && dir != "." && dir != ""; dir = path.Dir(dir) {
		if _, ok := im.Files[dir]; !ok {
			im.Files[dir] = &FileMeta{Path: dir, Kind: KindDir, Owner: "root", Group: "root", Mode: 0o755}
		}
	}
	if _, ok := im.Files["/"]; !ok && strings.HasPrefix(p, "/") {
		im.Files["/"] = &FileMeta{Path: "/", Kind: KindDir, Owner: "root", Group: "root", Mode: 0o755}
	}
}

// Lookup returns the metadata for a path, or nil if absent.
func (im *Image) Lookup(p string) *FileMeta {
	return im.Files[normalize(p)]
}

// Exists reports whether a path exists in the image.
func (im *Image) Exists(p string) bool { return im.Lookup(p) != nil }

// ExistsJoined reports whether Exists(strings.TrimSuffix(dir, "/") + "/" +
// rel), joining the path in a stack buffer: a clean join is looked up
// without building a string.
func (im *Image) ExistsJoined(dir, rel string) bool {
	var buf [256]byte
	p := append(append(append(buf[:0], strings.TrimSuffix(dir, "/")...), '/'), rel...)
	if isClean(p) {
		return im.Files[string(p)] != nil
	}
	return im.Exists(string(p))
}

// IsDir reports whether a path exists and is a directory (symlinks are
// resolved one level).
func (im *Image) IsDir(p string) bool {
	fm := im.Resolve(p)
	return fm != nil && fm.Kind == KindDir
}

// IsFile reports whether a path exists and is a regular file (symlinks are
// resolved one level).
func (im *Image) IsFile(p string) bool {
	fm := im.Resolve(p)
	return fm != nil && fm.Kind == KindFile
}

// Resolve follows symlinks (bounded, to tolerate cycles) and returns the
// final metadata, or nil.
func (im *Image) Resolve(p string) *FileMeta {
	fm := im.Lookup(p)
	for hops := 0; fm != nil && fm.Kind == KindSymlink && hops < 8; hops++ {
		fm = im.Lookup(fm.Target)
	}
	return fm
}

// HasSubdir reports whether the directory contains at least one
// sub-directory.
func (im *Image) HasSubdir(dir string) bool {
	return im.hasChildKind(dir, KindDir)
}

// HasSymlink reports whether the directory contains at least one symbolic
// link.
func (im *Image) HasSymlink(dir string) bool {
	return im.hasChildKind(dir, KindSymlink)
}

// hasChildKind reports whether some direct child of dir has the given
// kind, in one pass over Files that allocates nothing for clean keys and
// stops at the first match. A child is a key other than dir whose
// path.Dir is dir; keys are compared as stored, clean or not.
func (im *Image) hasChildKind(dir string, kind FileKind) bool {
	dir = normalize(dir)
	for p, fm := range im.Files {
		if fm.Kind == kind && p != dir && path.Dir(p) == dir {
			return true
		}
	}
	return false
}

// HasPathSuffix reports whether some path in the image ends with "/"+rel,
// that is, whether rel names the trailing elements of a recorded path (the
// semantic check of PartialFilePath and FileName values).
func (im *Image) HasPathSuffix(rel string) bool {
	for p := range im.Files {
		if n := len(p) - len(rel); n > 0 && p[n-1] == '/' && p[n:] == rel {
			return true
		}
	}
	return false
}

// UserExists reports whether the named user is present in /etc/passwd.
func (im *Image) UserExists(name string) bool {
	_, ok := im.Users[name]
	return ok
}

// GroupExists reports whether the named group is present in /etc/group.
func (im *Image) GroupExists(name string) bool {
	_, ok := im.Groups[name]
	return ok
}

// UserInGroup reports whether user belongs to group, either via primary GID
// or group membership list.
func (im *Image) UserInGroup(user, group string) bool {
	g, ok := im.Groups[group]
	if !ok {
		return false
	}
	if u, ok := im.Users[user]; ok && u.GID == g.GID {
		return true
	}
	for _, m := range g.Members {
		if m == user {
			return true
		}
	}
	return false
}

// IsAdmin reports whether the user has administrative privilege.
func (im *Image) IsAdmin(user string) bool {
	u, ok := im.Users[user]
	return ok && (u.IsAdmin || u.UID == 0)
}

// PrimaryGroup returns the name of the user's primary group ("" if
// unknown). When several groups share the user's GID — collected
// /etc/group files may repeat one — the lowest name wins, so the answer
// never depends on map iteration order.
func (im *Image) PrimaryGroup(user string) string {
	u, ok := im.Users[user]
	if !ok {
		return ""
	}
	best, found := "", false
	for name, g := range im.Groups {
		if g.GID == u.GID && (!found || name < best) {
			best, found = name, true
		}
	}
	return best
}

// PortRegistered reports whether the port appears in /etc/services.
func (im *Image) PortRegistered(port int) bool {
	for _, s := range im.Services {
		if s.Port == port {
			return true
		}
	}
	return false
}

// Accessible reports whether the named user can read the object at path,
// applying the standard owner/group/other permission-bit semantics plus
// root override. Missing paths or unknown users are inaccessible.
func (im *Image) Accessible(user, p string) bool {
	return im.permitted(user, p, 4)
}

// Writable reports whether the named user can write the object at path.
func (im *Image) Writable(user, p string) bool {
	return im.permitted(user, p, 2)
}

func (im *Image) permitted(user, p string, bit uint32) bool {
	fm := im.Resolve(p)
	if fm == nil {
		return false
	}
	if im.IsAdmin(user) {
		return true
	}
	u, ok := im.Users[user]
	if !ok {
		return false
	}
	switch {
	case fm.Owner == user:
		return fm.Mode&(bit<<6) != 0
	case im.UserInGroup(user, fm.Group) || im.PrimaryGroup(user) == fm.Group:
		return fm.Mode&(bit<<3) != 0
	default:
		_ = u
		return fm.Mode&bit != 0
	}
}

// ConfigFor returns the app's primary (first) configuration file, or nil.
func (im *Image) ConfigFor(app string) *ConfigFile {
	for i := range im.ConfigFiles {
		if im.ConfigFiles[i].App == app {
			return &im.ConfigFiles[i]
		}
	}
	return nil
}

// ConfigsFor returns every configuration file captured for an app, in
// capture order — the primary file first, then any included fragments
// (Apache conf.d files and the like).
func (im *Image) ConfigsFor(app string) []*ConfigFile {
	var out []*ConfigFile
	for i := range im.ConfigFiles {
		if im.ConfigFiles[i].App == app {
			out = append(out, &im.ConfigFiles[i])
		}
	}
	return out
}

// AddConfig appends an additional configuration file for an app (an
// included fragment). Unlike SetConfig it never replaces an existing file.
func (im *Image) AddConfig(app, path, content string) {
	im.ConfigFiles = append(im.ConfigFiles, ConfigFile{App: app, Path: path, Content: content})
}

// SetConfig replaces (or adds) the configuration file for an app.
func (im *Image) SetConfig(app, path, content string) {
	for i := range im.ConfigFiles {
		if im.ConfigFiles[i].App == app {
			im.ConfigFiles[i].Path = path
			im.ConfigFiles[i].Content = content
			return
		}
	}
	im.ConfigFiles = append(im.ConfigFiles, ConfigFile{App: app, Path: path, Content: content})
}
