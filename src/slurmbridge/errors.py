"""Exception hierarchy shared across the package."""


class SlurmBridgeError(Exception):
    """Base class for all errors raised by this package."""


# --- descriptor ---

class MalformedDocument(SlurmBridgeError):
    pass


class UnsupportedSchema(SlurmBridgeError):
    def __init__(self, schema_version):
        self.schema_version = schema_version
        super().__init__(f"unsupported schema-version: {schema_version!r}")


class InvalidDescriptor(SlurmBridgeError):
    def __init__(self, field, reason):
        self.field = field
        self.reason = reason
        super().__init__(f"invalid descriptor field {field!r}: {reason}")


class MissingRequiredParam(SlurmBridgeError):
    def __init__(self, param_id):
        self.param_id = param_id
        super().__init__(f"missing required parameter: {param_id}")


class TypeMismatch(SlurmBridgeError):
    def __init__(self, param_id, expected):
        self.param_id = param_id
        self.expected = expected
        super().__init__(f"parameter {param_id!r} must be of type {expected}")


class UnknownParam(SlurmBridgeError):
    def __init__(self, param_id):
        self.param_id = param_id
        super().__init__(f"unknown parameter: {param_id}")


# --- config ---

class MalformedConfig(SlurmBridgeError):
    def __init__(self, message, lineno=None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


class MissingSection(SlurmBridgeError):
    def __init__(self, section):
        self.section = section
        super().__init__(f"missing required config section [{section}]")


class InvalidValue(SlurmBridgeError):
    def __init__(self, key, reason):
        self.key = key
        self.reason = reason
        super().__init__(f"invalid value for {key!r}: {reason}")


class UnknownWorkflow(SlurmBridgeError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"workflow not registered: {name}")


# --- job scripts ---

class InvalidCount(SlurmBridgeError):
    pass


# --- transport ---

class TransportError(SlurmBridgeError):
    pass


class ConnectionLost(TransportError):
    pass


class Timeout(TransportError):
    pass


class SourceMissing(TransportError):
    pass


class DestinationUnwritable(TransportError):
    pass


class ChecksumMismatch(TransportError):
    pass


class SpawnFailed(TransportError):
    pass


# --- slurm client ---

class ScratchUnwritable(SlurmBridgeError):
    pass


class PullFailed(SlurmBridgeError):
    def __init__(self, workflow, exit_code, stderr=""):
        self.workflow = workflow
        self.exit_code = exit_code
        super().__init__(
            f"image pull failed for {workflow!r} (exit {exit_code}): {stderr}".rstrip()
        )


class SubmitRejected(SlurmBridgeError):
    def __init__(self, stderr, exit_code):
        self.stderr = stderr
        self.exit_code = exit_code
        super().__init__(f"submission rejected (exit {exit_code}): {stderr}".rstrip())


class UnparseableJobId(SlurmBridgeError):
    pass


class AccountingUnavailable(SlurmBridgeError):
    pass


class UnknownState(SlurmBridgeError):
    def __init__(self, token):
        self.token = token
        super().__init__(f"unmapped scheduler state token: {token!r}")


class LogMissing(SlurmBridgeError):
    pass


class EmptyOutput(SlurmBridgeError):
    pass


# --- orchestrator ---

class MissingInput(SlurmBridgeError):
    pass


class DuplicateId(SlurmBridgeError):
    pass


class InvalidBatchSize(SlurmBridgeError):
    pass


class TransferFailed(SlurmBridgeError):
    pass


class ConversionFailed(SlurmBridgeError):
    pass


class WorkflowFailed(SlurmBridgeError):
    pass


class RetrievalFailed(SlurmBridgeError):
    pass


class NoResults(SlurmBridgeError):
    pass


class CollisionError(SlurmBridgeError):
    def __init__(self, path):
        self.path = path
        super().__init__(f"refusing to overwrite existing file: {path}")


class UnknownRunId(SlurmBridgeError):
    def __init__(self, run_id):
        self.run_id = run_id
        super().__init__(f"unknown run id: {run_id}")
