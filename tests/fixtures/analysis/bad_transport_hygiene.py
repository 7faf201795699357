"""Known-bad: live handles on the wire."""


class LeakyDispatcher:
    def __init__(self, channel, backend):
        self.channel = channel
        self.backend = backend

    def send_callback(self):
        self.channel.send(lambda: None)  # expect[transport-hygiene]

    def send_live_backend(self):
        self.channel.send({"backend": self.backend})  # expect[transport-hygiene]

    def send_engine_handle(self, engine):
        extra = {"attempt": 0}
        self.channel.send({"engine": engine, "extra": extra})  # expect[transport-hygiene]

    def send_lock_over_pipe(self, result_pipe, state_lock):
        result_pipe.send({"guard": state_lock})  # expect[transport-hygiene]
