package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"cubefit/internal/api"
	"cubefit/internal/core"
	"cubefit/internal/headroom"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/recovery"
	"cubefit/internal/telemetry"
	"cubefit/internal/workload"
)

// engineConfig is cubefit-server's default engine: γ=2 replicas, k=10
// classes.
var engineConfig = core.Config{Gamma: 2, K: 10}

// walFile is the log one service instance writes and later boots from.
//
// It is an anonymous RAM-backed (tmpfs) file made by memfd_create, so each
// group commit still issues its fsync but the host disk's flush latency,
// which drifts between runs on a virtual disk, stays out of the figures. It
// has no directory entry: the service reaches it through the process's own
// /proc/self/fd link, and the kernel frees it when the descriptor closes.
type walFile struct {
	// path is what the service is given, as `cubefit-server -wal <path>`.
	path string
	// f holds the file open; closing it frees the log.
	f *os.File
}

// walHome describes where every log lives, for the provenance block.
const walHome = "memfd (tmpfs), anonymous: no directory entry"

// sysMemfdCreate is memfd_create(2) on linux/amd64; the syscall package
// predates it and names no constant.
const sysMemfdCreate = 319

func newWALFile() (*walFile, error) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		return nil, fmt.Errorf("the log is a memfd_create file, which the benchmark supports on linux/amd64 only, not on %s/%s",
			runtime.GOOS, runtime.GOARCH)
	}
	name, err := syscall.BytePtrFromString("cubefit-wal")
	if err != nil {
		return nil, err
	}
	fd, _, errno := syscall.Syscall(sysMemfdCreate, uintptr(unsafe.Pointer(name)), 0, 0)
	if errno != 0 {
		return nil, fmt.Errorf("memfd_create: %w", errno)
	}
	return &walFile{path: fmt.Sprintf("/proc/self/fd/%d", fd), f: os.NewFile(fd, "cubefit-wal")}, nil
}

func (w *walFile) size() (int64, error) {
	fi, err := w.f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// release frees the log.
func (w *walFile) release() error { return w.f.Close() }

// service is one controller serving ctrl.Handler() on a loopback listener.
type service struct {
	ctrl   *api.Controller
	srv    *http.Server
	url    string
	served chan error
}

// boot starts a controller the way `cubefit-server -wal <path>` does with
// its default flags: recover the engine from the log, cut the log back to
// its committed prefix, reopen it for append, and build the controller with
// the span tracer, the health loop and the default red line. It serves
// ctrl.Handler() itself: cubefit-server's mux around it, with the access
// log that writes one slog line per request, is left out. With a tracer
// the same calls run through its wrappers.
func boot(walPath string, tr *tracer) (*service, error) {
	var (
		cf  *core.CubeFit
		st  recovery.Stats
		err error
	)
	if tr == nil {
		cf, st, err = recovery.FromFile(walPath, engineConfig)
	} else {
		cf, st, err = tr.recoverFromFile(walPath, engineConfig)
	}
	if err != nil {
		return nil, fmt.Errorf("wal recovery: %w", err)
	}
	if _, err := obs.TruncateWAL(walPath, st.CommittedBytes); err != nil {
		return nil, fmt.Errorf("wal truncate: %w", err)
	}
	wal, err := obs.OpenWAL(walPath)
	if err != nil {
		return nil, fmt.Errorf("wal open: %w", err)
	}
	hcfg := telemetry.DefaultConfig()
	hcfg.Interval = telemetry.DefaultInterval
	hcfg.Burn.Objective = telemetry.DefaultObjective
	hcfg.Headroom.Floor = headroom.DefaultRedLine
	var (
		alg  packing.Algorithm = cf
		log  obs.CommitLog     = wal
		opts                   = []api.Option{api.WithHealthConfig(hcfg), api.WithHealthLoop()}
	)
	if tr != nil {
		alg, log = tr.algorithm(cf), tr.commitLog(wal)
		opts = append(opts, api.WithSpanSink(tr))
	}
	opts = append(opts, api.WithWAL(log))
	var ctrl *api.Controller
	if tr == nil {
		ctrl, err = api.NewController(alg, workload.DefaultLoadModel(), opts...)
	} else {
		ctrl, err = tr.newController(alg, opts)
	}
	if err != nil {
		return nil, errors.Join(err, wal.Close())
	}
	ctrl.SetHeadroomRedLine(headroom.DefaultRedLine)
	var h http.Handler = ctrl.Handler()
	if tr != nil {
		h = tr.handler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, ctrl.Close())
	}
	s := &service{
		ctrl: ctrl,
		url:  "http://" + ln.Addr().String(),
		// cubefit-server's timeouts.
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       120 * time.Second,
		},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close shuts the service down as cubefit-server does on SIGTERM: stop
// accepting, drain in-flight requests, then drain the admission pipeline
// and make the log's final commit. It returns once the serve goroutine has
// exited.
func (s *service) close() error {
	s.ctrl.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.ctrl.Close())
}

// workDir holds what a run leaves behind: the traced run's span file. Runs
// start in the repository root.
const workDir = ".bench_build/perfbench"
