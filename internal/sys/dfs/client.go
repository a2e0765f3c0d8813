package dfs

import (
	"strconv"
	"strings"

	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/inject"
)

// Client is a scripted DFS client session.
type Client struct {
	c    *Cluster
	name string

	// tokenRenewalBroken models the HD-16332 defect: after a single failed
	// token refetch, the client stops trying to renew and spins on the
	// stale token instead.
	tokenRenewalBroken bool

	// located caches open replies (block locations + token), as DFSClient
	// does; a later read through the cache can hold an expired token.
	located map[string]openReply
}

// NewClient creates a named client.
func (c *Cluster) NewClient(name string) *Client {
	return &Client{c: c, name: name, located: make(map[string]openReply)}
}

func (cl *Client) env() *cluster.Env { return cl.c.env }

// WriteFile creates path, writes the given number of blocks through
// pipelines, and closes the file. done runs after the close (or abandon).
func (cl *Client) WriteFile(path string, blocks int, abandon bool, done func()) {
	env := cl.env()
	env.Net.Call("dfs.client.create-rpc", cl.c.msg(cl.name, "nn", "dfs.create", path),
		rpcTimeout, func(_ interface{}, err error) {
			if err != nil {
				env.Log.Errorf("Client %s could not create %s: %s", cl.name, path, err)
				if done != nil {
					done()
				}
				return
			}
			env.Log.Infof("Client %s created %s", cl.name, path)
			cl.writeNextBlock(path, blocks, 0, abandon, done, 0)
		})
}

func (cl *Client) writeNextBlock(path string, total, written int, abandon bool, done func(), retries int) {
	env := cl.env()
	if written >= total {
		cl.closeFile(path, done)
		return
	}
	if abandon && written == total-1 {
		// The writer dies before its last block completes: the lease is
		// left dangling for the namenode's monitor to recover (HD-12070).
		env.Log.Warnf("Client %s abandoned %s before completing block %d", cl.name, path, written+1)
		if done != nil {
			done()
		}
		return
	}
	env.Net.Call("dfs.client.addblock-rpc", cl.c.msg(cl.name, "nn", "dfs.addblock", path),
		rpcTimeout, func(payload interface{}, err error) {
			if err != nil {
				env.Log.Errorf("Client %s could not allocate block for %s: %s", cl.name, path, err)
				if done != nil {
					done()
				}
				return
			}
			alloc := payload.(addBlockReply)
			if len(alloc.Pipeline) == 0 {
				env.Log.Errorf("Client %s got empty pipeline for %s", cl.name, path)
				if done != nil {
					done()
				}
				return
			}
			data := "data-" + path + "-" + strconv.Itoa(written)
			req := writeReq{Block: alloc.Block, Data: data, Pipeline: alloc.Pipeline}
			env.Net.Call("dfs.client.writeblock-rpc",
				cl.c.msg(cl.name, alloc.Pipeline[0], "dfs.writeblock", req),
				2*pipeTimeout, func(_ interface{}, err error) {
					if err != nil {
						if retries < 2 {
							env.Log.Warnf("Client %s retrying block write for %s: %s", cl.name, path, err)
							env.Sim.Schedule(cl.name, 60*des.Millisecond, func() {
								cl.writeNextBlock(path, total, written, abandon, done, retries+1)
							})
							return
						}
						env.Log.Errorf("Client %s failed to write block for %s: %s", cl.name, path, err)
						if done != nil {
							done()
						}
						return
					}
					env.Sim.Schedule(cl.name, 20*des.Millisecond, func() {
						cl.writeNextBlock(path, total, written+1, abandon, done, 0)
					})
				})
		})
}

func (cl *Client) closeFile(path string, done func()) {
	env := cl.env()
	env.Net.Call("dfs.client.complete-rpc", cl.c.msg(cl.name, "nn", "dfs.complete", path),
		rpcTimeout, func(_ interface{}, err error) {
			if err != nil {
				env.Log.Errorf("Client %s could not close %s: %s", cl.name, path, err)
			} else {
				env.Log.Infof("Client %s closed %s", cl.name, path)
			}
			if done != nil {
				done()
			}
		})
}

// ReadFile opens path and reads every block, exercising the block-token
// path. done runs when the whole file has been read (or given up on).
func (cl *Client) ReadFile(path string, done func()) {
	env := cl.env()
	started := env.Sim.Now()
	if info, ok := cl.located[path]; ok {
		// Cached block locations: the token may have expired by now.
		env.Log.Debugf("Client %s reading %s from cached locations", cl.name, path)
		cl.readBlocks(path, info, 0, started, done)
		return
	}
	env.Net.Call("dfs.client.open-rpc", cl.c.msg(cl.name, "nn", "dfs.open", path),
		rpcTimeout, func(payload interface{}, err error) {
			if err != nil {
				env.Log.Errorf("Client %s could not open %s: %s", cl.name, path, err)
				if done != nil {
					done()
				}
				return
			}
			info := payload.(openReply)
			cl.located[path] = info
			cl.readBlocks(path, info, 0, started, done)
		})
}

func (cl *Client) readBlocks(path string, info openReply, idx int, started des.Time, done func()) {
	env := cl.env()
	if idx >= len(info.Blocks) {
		elapsed := (env.Sim.Now() - started) / des.Millisecond
		if elapsed > 400 {
			env.Log.Warnf("Read of %s took %dms; slow read detected", path, elapsed)
		}
		env.Log.Infof("Client %s finished reading %s (%d blocks)", cl.name, path, len(info.Blocks))
		if done != nil {
			done()
		}
		return
	}
	blk := info.Blocks[idx]
	locs := info.Locations[blk]
	if len(locs) == 0 {
		env.Log.Errorf("Client %s found no replicas for blk_%d", cl.name, blk)
		if done != nil {
			done()
		}
		return
	}
	cl.readOneBlock(path, info, idx, blk, locs[int(blk)%len(locs)], started, done, 0)
}

// readOneBlock reads a single block, handling token expiry. HD-16332 (f9):
// after one failed token refetch the client blindly retries the stale
// token with backoff instead of renewing, making the read pathologically
// slow.
func (cl *Client) readOneBlock(path string, info openReply, idx int, blk int64, dn string, started des.Time, done func(), attempt int) {
	env := cl.env()
	req := readReq{Block: blk, Token: info.Token}
	env.Net.Call("dfs.client.readblock-rpc", cl.c.msg(cl.name, dn, "dfs.read-block", req),
		rpcTimeout, func(_ interface{}, err error) {
			if err == nil {
				env.Sim.Schedule(cl.name, 10*des.Millisecond, func() {
					cl.readBlocks(path, info, idx+1, started, done)
				})
				return
			}
			if !strings.Contains(err.Error(), "invalid block token") {
				env.Log.Errorf("Client %s failed to read blk_%d from %s: %s", cl.name, blk, dn, err)
				if done != nil {
					done()
				}
				return
			}
			// Expired token: renew it, unless renewal is (believed) broken.
			if !cl.tokenRenewalBroken {
				if rerr := env.FI.Reach("dfs.client.refetch-token", inject.IO); rerr != nil {
					env.Log.Warnf("Failed to refetch block token for blk_%d, retrying with stale token", blk)
					cl.tokenRenewalBroken = true
				} else {
					env.Net.Call("dfs.client.renew-rpc", cl.c.msg(cl.name, "nn", "dfs.renew-token", nil),
						rpcTimeout, func(payload interface{}, err error) {
							if err != nil {
								env.Log.Warnf("Token renewal RPC failed for blk_%d: %s", blk, err)
								cl.retryStale(path, info, idx, blk, dn, started, done, attempt)
								return
							}
							info.Token = payload.(blockToken)
							env.Log.Debugf("Client %s renewed block token for blk_%d", cl.name, blk)
							cl.readOneBlock(path, info, idx, blk, dn, started, done, attempt+1)
						})
					return
				}
			}
			cl.retryStale(path, info, idx, blk, dn, started, done, attempt)
		})
}

// retryStale is the defective backoff loop: retry the same expired token,
// then fall back to a full reopen after many attempts.
func (cl *Client) retryStale(path string, info openReply, idx int, blk int64, dn string, started des.Time, done func(), attempt int) {
	env := cl.env()
	if attempt >= 10 {
		env.Log.Warnf("Client %s giving up on stale token for blk_%d, reopening %s", cl.name, blk, path)
		cl.tokenRenewalBroken = false
		env.Net.Call("dfs.client.reopen-rpc", cl.c.msg(cl.name, "nn", "dfs.open", path),
			rpcTimeout, func(payload interface{}, err error) {
				if err != nil {
					env.Log.Errorf("Client %s reopen of %s failed: %s", cl.name, path, err)
					if done != nil {
						done()
					}
					return
				}
				fresh := payload.(openReply)
				cl.located[path] = fresh
				cl.readBlocks(path, fresh, idx, started, done)
			})
		return
	}
	env.Sim.Schedule(cl.name, 80*des.Millisecond, func() {
		cl.readOneBlock(path, info, idx, blk, dn, started, done, attempt+1)
	})
}
