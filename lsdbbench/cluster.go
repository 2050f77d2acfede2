package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	lsdb "repro"
	"repro/internal/repl"
	"repro/internal/serve"
)

// Tenant names. Every workload serves the primary; replica adds a
// follower tenant on the same server, so the benchmark's client talks
// to one host and one connection cap bounds all of its traffic.
const (
	primaryTenant  = "primary"
	followerTenant = "replica"
)

// logName is the primary's durability log inside a cluster directory.
const logName = "primary.log"

// seedDataDir writes the world into dir as a compacted log: the
// tenant data directory every setup opens. Compacting first means a
// joining follower takes the snapshot bootstrap path, which is how a
// replica is provisioned.
func seedDataDir(w *lsdb.Database, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	db, err := lsdb.Open(lsdb.Options{LogPath: filepath.Join(dir, logName), SyncPolicy: lsdb.SyncNever})
	if err != nil {
		return err
	}
	u, st := w.Universe(), db.Store()
	for _, f := range w.Store().Facts() {
		if _, err := st.InsertLogged(db.Universe().NewFact(u.Name(f.S), u.Name(f.R), u.Name(f.T))); err != nil {
			db.Close()
			return err
		}
	}
	if err := db.Compact(); err != nil {
		db.Close()
		return err
	}
	return db.Close()
}

// copyFile copies src to dst (a fresh tenant data directory per
// cluster, so every setup opens the same bytes).
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// cluster is one served system: a serve.Server on a loopback
// listener hosting the primary tenant (opened from a data directory
// with the default SyncAlways policy) and, on replica, a follower
// tenant fed by WAL shipping from the primary.
type cluster struct {
	dir      string
	primary  *lsdb.Database
	follower *lsdb.Database
	fl       *repl.Follower
	flLive   bool // fl.Start succeeded, so close must Stop it
	srv      *serve.Server
	mux      http.Handler
	hs       *http.Server
	served   chan struct{}
	base     string

	bootstrapDur time.Duration // follower Start until caught up and connected
	setupDur     time.Duration // open until first navigate and search answered
}

// readTenant is the tenant the read mix is sent to.
func (c *cluster) readTenant() string {
	if c.fl != nil {
		return followerTenant
	}
	return primaryTenant
}

// readDB is the database behind the read tenant.
func (c *cluster) readDB() *lsdb.Database {
	if c.fl != nil {
		return c.follower
	}
	return c.primary
}

// startCluster copies the seeded log into dir and brings the system up,
// timing setup: open the data directory (and, with replica, bootstrap a
// follower from the primary's snapshot) until the first navigate and
// search on the read tenant are answered over HTTP.
func startCluster(seedLog, dir string, replica bool, client *http.Client, firstEntity string) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, logName)
	if err := copyFile(seedLog, logPath); err != nil {
		return nil, err
	}
	c := &cluster{dir: dir, served: make(chan struct{})}
	t0 := time.Now()
	db, err := lsdb.Open(lsdb.Options{LogPath: logPath})
	if err != nil {
		return nil, fmt.Errorf("open primary: %w", err)
	}
	c.primary = db
	c.srv = serve.New()
	pt, err := c.srv.AddTenant(primaryTenant, db, serve.Quotas{})
	if err != nil {
		db.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	c.base = "http://" + ln.Addr().String()
	if replica {
		pt.SetPrimary(repl.NewPrimary(db, repl.PrimaryOptions{}))
		fdb, err := lsdb.Open(lsdb.Options{})
		if err != nil {
			ln.Close()
			db.Close()
			return nil, err
		}
		c.follower = fdb
		ft, err := c.srv.AddTenant(followerTenant, fdb, serve.Quotas{})
		if err != nil {
			ln.Close()
			db.Close()
			return nil, err
		}
		fdir := filepath.Join(dir, "follower")
		if err := os.MkdirAll(fdir, 0o755); err != nil {
			ln.Close()
			db.Close()
			return nil, err
		}
		fl, err := repl.NewFollower(fdb, repl.Config{
			Primary: c.base,
			Tenant:  primaryTenant,
			Dir:     fdir,
			Name:    "follower",
			ID:      "lsdbbench",
			Client:  &http.Client{Transport: &http.Transport{}},
			WaitMs:  250,
			Backoff: time.Millisecond,
			Lock:    ft.SnapLocker(),
		})
		if err != nil {
			ln.Close()
			db.Close()
			return nil, err
		}
		ft.SetFollower(fl, 2*time.Second)
		c.fl = fl
	}
	c.mux = c.srv.Mux()
	c.hs = &http.Server{Handler: c.mux}
	go func() {
		defer close(c.served)
		if err := c.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "lsdbbench: serve:", err)
		}
	}()
	if replica {
		tb := time.Now()
		if err := c.fl.Start(); err != nil {
			c.close()
			return nil, fmt.Errorf("start follower: %w", err)
		}
		c.flLive = true
		if _, ok := c.fl.WaitLSN(db.LSN(), 60*time.Second); !ok {
			c.close()
			return nil, fmt.Errorf("follower never caught up to LSN %d (%+v)", db.LSN(), c.fl.Stats())
		}
		for deadline := time.Now().Add(60 * time.Second); !c.fl.Stats().Connected; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				c.close()
				return nil, fmt.Errorf("follower never connected (%+v)", c.fl.Stats())
			}
		}
		c.bootstrapDur = time.Since(tb)
	}
	for _, path := range []string{
		"/navigate?limit=20&entity=" + firstEntity,
		"/search?q=" + firstEntity,
	} {
		if _, err := getOK(client, c.base+path+"&db="+c.readTenant()); err != nil {
			c.close()
			return nil, fmt.Errorf("first read: %w", err)
		}
	}
	c.setupDur = time.Since(t0)
	return c, nil
}

// getOK issues a GET and returns the body of a 200 answer.
func getOK(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return body, nil
}

// close stops the follower, the HTTP server and every tenant log, and
// waits for the serving goroutine to return.
func (c *cluster) close() error {
	if c.flLive {
		c.fl.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.hs.Shutdown(ctx); err != nil {
		c.hs.Close()
	}
	<-c.served
	return c.srv.Close()
}
