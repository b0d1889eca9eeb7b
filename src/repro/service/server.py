"""Asyncio front end of the sweep service.

One event loop accepts connections, frames requests
(:mod:`repro.service.http`) and writes every response.  A ``GET`` or
``HEAD`` is answered by the synchronous
:meth:`~repro.service.daemon.SweepService.dispatch` right on the loop:
reads come from memory, so a hop to a thread would cost two context
switches and overlap no work.  Every other method is dispatched on the
loop's default executor, because a ``POST`` may fsync the ledger,
build a spec grid or recompute goldens.

Streaming responses ship as chunked transfer encoding.  The loop pulls
the response's feed, which never blocks, and sleeps on an
:class:`asyncio.Event` that the feed's watcher sets from whichever
thread appends an event, so a follower holds no thread while it
waits.  A ``HEAD`` response carries the head only.
"""

import asyncio
import threading

from repro.service import http


class ServiceServer:
    """Serve one :class:`~repro.service.daemon.SweepService` over TCP:
    reads on the event loop, everything else on a thread.

    :meth:`run` blocks the calling thread until the service drains and
    stops (``POST /shutdown``) or :meth:`request_stop` is called from
    anywhere; tests run it on a daemon thread and :meth:`wait_ready`
    for the bound port (``port=0`` picks an ephemeral one).
    """

    def __init__(self, service, host="127.0.0.1", port=0, on_ready=None):
        self.service = service
        self.host = host
        self.port = port
        self.on_ready = on_ready
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self._active = 0
        self._idle = None

    def run(self):
        try:
            asyncio.run(self._main())
        finally:
            self._ready.set()       # unblock waiters even on failure

    def wait_ready(self, timeout=10.0):
        """True once the listening socket is bound (port is final)."""
        return self._ready.wait(timeout) and self._loop is not None

    def request_stop(self):
        """Thread-safe: make :meth:`run` return."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:    # loop already closed
                pass

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        server = await asyncio.start_server(
            self._handle, self.host, self.port,
            limit=http.MAX_HEAD_BYTES)
        self.port = server.sockets[0].getsockname()[1]
        self.service.on_stopped = self.request_stop
        self._ready.set()
        if self.on_ready is not None:
            self.on_ready(self)
        async with server:
            await self._stop.wait()
        # A drain-triggered stop races the 202 response of the very
        # request that caused it; let in-flight connections finish
        # writing (bounded — an idle keep-alive client can't hold the
        # shutdown hostage).
        if self._active:
            try:
                await asyncio.wait_for(self._idle.wait(), timeout=5.0)
            except asyncio.TimeoutError:
                pass
        self.service.close()

    async def _handle(self, reader, writer):
        self._active += 1
        self._idle.clear()
        try:
            while True:
                try:
                    request = await http.read_request(reader)
                except http.BadRequest as exc:
                    await self._send(writer, http.error_response(
                        400, str(exc)), None, keep_alive=False)
                    break
                if request is None:
                    break
                if request.method in ("GET", "HEAD"):
                    response = self.service.dispatch(request)
                else:
                    response = await self._loop.run_in_executor(
                        None, self.service.dispatch, request)
                keep_alive = request.headers.get(
                    "connection", "keep-alive").lower() != "close"
                await self._send(writer, response, request.method,
                                 keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass
        finally:
            self._active -= 1
            if self._active == 0:
                self._idle.set()
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                # Loop teardown cancels the close waiter; the socket
                # is gone either way.
                pass

    async def _send(self, writer, response, method, keep_alive):
        """Write ``response`` in as few sends as it allows: on one CPU
        each send can wake the client, so a head never leaves apart
        from the content that is ready with it."""
        stream = response.stream
        head = http.render_head(response, chunked=stream is not None,
                                keep_alive=keep_alive)
        if method == "HEAD":        # RFC 9110 §9.3.2: HEAD has no content
            writer.write(head)
        elif stream is None:
            writer.write(head + response.body)
        else:
            await self._follow(writer, head, stream)
        await writer.drain()

    async def _follow(self, writer, head, stream):
        """Ship ``stream`` as chunks until it is exhausted, sleeping on
        the loop (not on a thread) while it has nothing new."""
        woken = asyncio.Event()
        loop = self._loop

        def wake():
            # Runs on the appending thread under the job's lock: only
            # schedule the flag, and never raise into the job.
            try:
                loop.call_soon_threadsafe(woken.set)
            except RuntimeError:    # loop already closed
                pass

        out = head
        unwatch = stream.watch(wake)
        try:
            while True:
                woken.clear()
                chunk, exhausted = stream.pull()
                if chunk:
                    out += b"%x\r\n%s\r\n" % (len(chunk), chunk)
                if exhausted:
                    writer.write(out + b"0\r\n\r\n")
                    return
                if out:
                    writer.write(out)
                    out = b""
                    await writer.drain()
                if not chunk:
                    await woken.wait()
        finally:
            unwatch()


def serve(service, host="127.0.0.1", port=0, on_ready=None):
    """Build a :class:`ServiceServer` and block serving ``service``."""
    server = ServiceServer(service, host=host, port=port,
                           on_ready=on_ready)
    server.run()
    return server
