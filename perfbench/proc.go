package main

// Process hygiene and host facts: child processes in their own process
// group, killed and reaped on every exit path; checks that a run leaves
// no child, socket or temp dir behind; the host fingerprint.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// prSetChildSubreaper makes orphaned descendants re-parent to this
// process, so grandchildren killed with their group are reaped here
// instead of lingering as zombies.
const prSetChildSubreaper = 36

func becomeSubreaper() error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0); errno != 0 {
		return fmt.Errorf("prctl(PR_SET_CHILD_SUBREAPER): %w", errno)
	}
	return nil
}

// runGroup runs cmd as the leader of a new process group and returns its
// standard output. On every exit path — success, failure, ctx
// cancellation by timeout or signal — the whole group is killed and every
// member this process can reap is reaped before runGroup returns.
func runGroup(ctx context.Context, cmd *exec.Cmd) ([]byte, error) {
	var out bytes.Buffer
	cmd.Stdout = &out
	if cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(cmd.Path), err)
	}
	pgid := cmd.Process.Pid
	stop := context.AfterFunc(ctx, func() { syscall.Kill(-pgid, syscall.SIGKILL) })
	err := cmd.Wait()
	stop()
	// Members that outlived the leader (grandchildren) die with the
	// group; as orphans they re-parent to this subreaper and are reaped.
	syscall.Kill(-pgid, syscall.SIGKILL)
	reapGroup(pgid)
	if ctx.Err() != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(cmd.Path), ctx.Err())
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(cmd.Path), err)
	}
	return out.Bytes(), nil
}

// reapGroup waits for every remaining member of process group pgid that
// is a child of this process, for at most two seconds.
func reapGroup(pgid int) {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		var ws syscall.WaitStatus
		pid, err := syscall.Wait4(-pgid, &ws, syscall.WNOHANG, nil)
		if errors.Is(err, syscall.ECHILD) {
			return
		}
		if err == nil && pid == 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// procStat is the part of /proc/<pid>/stat the hygiene check reads.
type procStat struct {
	pid, ppid int
	state     string
}

func readProcStats() []procStat {
	ents, _ := os.ReadDir("/proc")
	var out []procStat
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// The command name may hold spaces; fields resume after ')'.
		s := string(b)
		i := strings.LastIndexByte(s, ')')
		if i < 0 {
			continue
		}
		f := strings.Fields(s[i+1:])
		if len(f) < 2 {
			continue
		}
		ppid, _ := strconv.Atoi(f[1])
		out = append(out, procStat{pid: pid, ppid: ppid, state: f[0]})
	}
	return out
}

// hygiene reports what a finished run left behind: child processes,
// listening sockets, and any of the given temp dirs that still exist.
func hygiene(tempDirs ...string) []string {
	var bad []string
	self := os.Getpid()
	for _, p := range readProcStats() {
		if p.ppid == self {
			bad = append(bad, fmt.Sprintf("child process %d (state %s)", p.pid, p.state))
		}
	}
	for _, l := range listeners() {
		bad = append(bad, "listening socket "+l)
	}
	for _, d := range tempDirs {
		if d == "" {
			continue
		}
		if _, err := os.Stat(d); !errors.Is(err, fs.ErrNotExist) {
			bad = append(bad, "temp dir "+d)
		}
	}
	return bad
}

// listeners returns the local addresses of TCP sockets this process
// holds open in the LISTEN state.
func listeners() []string {
	mine := map[string]bool{}
	fds, _ := os.ReadDir("/proc/self/fd")
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if inode, ok := strings.CutPrefix(target, "socket:["); err == nil && ok {
			mine[strings.TrimSuffix(inode, "]")] = true
		}
	}
	var out []string
	for _, table := range []string{"/proc/self/net/tcp", "/proc/self/net/tcp6"} {
		b, err := os.ReadFile(table)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n")[1:] {
			f := strings.Fields(line)
			const listen = "0A"
			if len(f) > 9 && f[3] == listen && mine[f[9]] {
				out = append(out, f[1])
			}
		}
	}
	return out
}

// cpuSeconds returns the user+system CPU this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// host is the fingerprint printed with every result.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	IODir      string `json:"io_dir"`
	IOFS       string `json:"io_fs"`
	Seed       int64  `json:"seed"`
}

func hostFingerprint(root, ioDir string, seed int64) host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     commitOf(root),
		IODir:      ioDir,
		IOFS:       fsType(ioDir),
		Seed:       seed,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf names the source under test: the git HEAD when root is a git
// checkout, else "src-" and a digest of every Go source and go.mod under
// root (the benchmark's build directory excluded).
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == buildDir || strings.HasPrefix(d.Name(), ".git")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
